package dataflow

import (
	"strings"
	"testing"

	"spatial/internal/cminor"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
)

// evRecord is one observed simulator event for replay comparison.
type evRecord struct {
	time int64
	seq  int64
	act  int
	node int
}

func recordEvents(t *testing.T, p *pegasus.Program, entry string) ([]evRecord, *Result) {
	t.Helper()
	var evs []evRecord
	res, err := Prebuild(p).RunHooks(entry, nil, DefaultConfig(), Hooks{
		Events: func(time, seq int64, act, node int) {
			evs = append(evs, evRecord{time, seq, act, node})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs, res
}

// TestDeterministicReplay asserts the event-engine invariant the
// re-layout must preserve: two runs of the same program produce the
// exact same event sequence — every (time, seq, activation, node)
// triple in the same order. The program exercises loops, a token
// generator, recursion (frame recycling), and memory traffic.
func TestDeterministicReplay(t *testing.T) {
	src := `
int a[40];
int rec(int n) {
  int pad[8];
  pad[0] = n * 3;
  if (n <= 0) return pad[0];
  return pad[0] + rec(n - 1);
}
int f(void) {
  int i;
  for (i = 0; i < 40; i++) a[i] = i;
  for (i = 0; i < 37; i++) a[i] = a[i+3] * 2;
  int s = rec(5);
  for (i = 0; i < 40; i++) s = s * 5 + a[i];
  return s & 0xffffff;
}`
	p := optProgram(t, src, opt.Full)
	evs1, res1 := recordEvents(t, p, "f")
	evs2, res2 := recordEvents(t, p, "f")
	if res1.Value != res2.Value || res1.Stats.Cycles != res2.Stats.Cycles {
		t.Fatalf("replay diverged: value %d/%d cycles %d/%d",
			res1.Value, res2.Value, res1.Stats.Cycles, res2.Stats.Cycles)
	}
	if len(evs1) != len(evs2) {
		t.Fatalf("event counts differ: %d vs %d", len(evs1), len(evs2))
	}
	for i := range evs1 {
		if evs1[i] != evs2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, evs1[i], evs2[i])
		}
	}
	if int64(len(evs1)) != res1.Stats.Events {
		t.Fatalf("Stats.Events = %d, hook saw %d", res1.Stats.Events, len(evs1))
	}
}

// TestSteadyStateAllocsPerEvent pins the engine's core claim: once the
// pools are warm, processing more events allocates nothing. It compares
// the allocation count of a short and a long run of the same compiled
// program (same fixed setup cost, ~47x the events); the per-extra-event
// allocation rate must be ~0.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	src := `
int f(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) s = s + ((s ^ i) & 1023);
  return s;
}`
	p := optProgram(t, src, opt.Full)
	cfg := DefaultConfig()
	events := func(n int64) int64 {
		res, err := Run(p, "f", []int64{n}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Events
	}
	shortEvents, longEvents := events(200), events(10000)
	if longEvents <= shortEvents {
		t.Fatalf("bad calibration: %d <= %d events", longEvents, shortEvents)
	}
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(p, "f", []int64{n}, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	shortAllocs, longAllocs := allocs(200), allocs(10000)
	delta := longAllocs - shortAllocs
	perEvent := delta / float64(longEvents-shortEvents)
	// Allow a little noise from mid-run GC clearing sync.Pool victims;
	// the real bar is "orders of magnitude below one alloc per event".
	if perEvent > 0.001 {
		t.Fatalf("steady-state allocs/event = %.5f (short run %.0f allocs / %d events, long run %.0f allocs / %d events)",
			perEvent, shortAllocs, shortEvents, longAllocs, longEvents)
	}
}

// frameMachine builds a bare machine with a synthetic layout for frame
// allocator unit tests: 96 bytes of memory, stack starting at 64, one
// function with a 32-byte frame.
func frameMachine() (*machine, *cminor.FuncDecl) {
	fn := &cminor.FuncDecl{Name: "f"}
	layout := &pegasus.Layout{
		MemSize:   96,
		StackBase: 64,
		FrameSize: map[*cminor.FuncDecl]uint32{fn: 32},
	}
	m := &machine{
		prog:       &pegasus.Program{Layout: layout},
		mem:        layout.NewMemory(),
		sp:         64,
		freeFrames: map[uint32][]uint32{},
	}
	return m, fn
}

// TestAllocFrameFlushAgainstTop is the off-by-one regression test: a
// frame that ends exactly at MemSize is legal (memory is [0, MemSize)
// and the frame occupies [64, 96) of a 96-byte memory).
func TestAllocFrameFlushAgainstTop(t *testing.T) {
	m, fn := frameMachine()
	f := m.allocFrame(fn)
	if m.err != nil {
		t.Fatalf("frame flush against top of memory rejected: %v", m.err)
	}
	if f != 64 || m.sp != 96 {
		t.Fatalf("frame = %d, sp = %d; want 64, 96", f, m.sp)
	}
	// One more frame genuinely overflows.
	m.allocFrame(fn)
	if m.err == nil {
		t.Fatal("expected stack overflow past MemSize")
	}
}

// TestStackOverflowReportsLiveFrames asserts the overflow diagnostic
// counts frames actually live, not activations ever created.
func TestStackOverflowReportsLiveFrames(t *testing.T) {
	m, fn := frameMachine()
	// Simulate a history of completed activations: the counter that used
	// to feed the message would now be 100.
	m.nextActID = 100
	m.allocFrame(fn)
	m.allocFrame(fn)
	if m.err == nil {
		t.Fatal("expected stack overflow")
	}
	if !strings.Contains(m.err.Error(), "2 frames live") {
		t.Fatalf("overflow message should report 2 live frames: %v", m.err)
	}
}

// TestRecycledFrameZeroed asserts a frame popped from the free list is
// zeroed: without this a program reading an uninitialized local sees
// different values on first use versus reuse.
func TestRecycledFrameZeroed(t *testing.T) {
	m, fn := frameMachine()
	f := m.allocFrame(fn)
	for i := f; i < f+32; i++ {
		m.mem.Store(i, 1, 0xAB)
	}
	gi := &graphInfo{g: pegasus.NewGraph(fn)}
	m.freeFrame(&activation{gi: gi, frame: f})
	if m.liveFrames != 0 {
		t.Fatalf("liveFrames = %d after free, want 0", m.liveFrames)
	}
	f2 := m.allocFrame(fn)
	if f2 != f {
		t.Fatalf("expected frame reuse: got %d, want %d", f2, f)
	}
	for i := f2; i < f2+32; i++ {
		if m.mem.Load(i, 1, false) != 0 {
			t.Fatalf("recycled frame not zeroed at offset %d", i-f2)
		}
	}
}
