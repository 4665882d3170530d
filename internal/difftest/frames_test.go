package difftest

import "testing"

// TestFrameReuseSeeds pins the frame allocator's zero-on-reuse contract
// against the interpreter oracle with hand-written programs, since the
// random generator rarely stacks recursion depth against frame reuse.
//
// The shape that caught the original bug: a function writes its locals
// and returns, recursion drives the stack pointer up and retires frames
// to the free list, then a later call reuses one of those dirty frames
// and reads a local it never wrote. Both engines must agree that locals
// start zero.
func TestFrameReuseSeeds(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{
			// scratch(1, ...) dirties its 8-word frame; rec(3) cycles
			// frames through the free list; scratch(0, 0) then reuses a
			// dirty frame and sums locals it never initialized.
			name: "recursion_then_call_reuse",
			src: `
int scratch(int write, int v) {
  int buf[8];
  int i;
  int s = 0;
  if (write) {
    for (i = 0; i < 8; i++) buf[i] = v + i * 7;
  }
  for (i = 0; i < 8; i++) s = s + buf[i];
  return s;
}
int rec(int n) {
  int pad[8];
  pad[0] = n;
  if (n <= 0) return pad[0];
  return pad[0] + rec(n - 1);
}
int bench(void) {
  int a = scratch(1, 7);
  int b = rec(3);
  int c = scratch(0, 0);
  return a * 1000 + b * 100 + c;
}`,
		},
		{
			// Repeated calls of the same function: the second call reuses
			// the first call's frame directly.
			name: "back_to_back_reuse",
			src: `
int f(int init) {
  int x[4];
  int i;
  int s = 0;
  if (init) { for (i = 0; i < 4; i++) x[i] = 9; }
  for (i = 0; i < 4; i++) s = s + x[i];
  return s;
}
int bench(void) {
  return f(1) * 10 + f(0);
}`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Check(tc.src, 0); err != nil {
				t.Fatalf("%v\nsource:\n%s", err, tc.src)
			}
		})
	}
}
