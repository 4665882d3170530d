package dataflow

import (
	"strings"
	"testing"

	"spatial/internal/pegasus"
)

const profileSrc = `
int out[8];

int fill(int n) {
  int i;
  for (i = 0; i < n; i++) out[i] = i * i;
  return out[n - 1];
}`

// profileRun runs p with a profile attached through Hooks.Profile.
func profileRun(p *pegasus.Program, entry string, args []int64) (*Result, *Profile, error) {
	prof := NewProfile()
	res, err := Prebuild(p).RunHooks(entry, args, DefaultConfig(), Hooks{Profile: prof})
	return res, prof, err
}

func TestInspectorReadsGlobals(t *testing.T) {
	p := compileProgram(t, profileSrc)
	res, m, err := Prebuild(p).run("fill", []int64{8}, DefaultConfig(), Hooks{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Value != 49 {
		t.Fatalf("fill(8) = %d, want 49", res.Value)
	}
	var base uint32
	found := false
	for _, o := range p.Alias.Objects {
		if o.Name == "out" {
			base, found = p.Layout.AddressOfObject(o.ID)
			break
		}
	}
	if !found {
		t.Fatal("global `out` not in layout")
	}
	for i := int64(0); i < 8; i++ {
		if got := m.mem.Load(base+uint32(4*i), 4, true); got != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, got, i*i)
		}
	}
	raw := m.mem.ReadBytes(base, 8)
	if len(raw) != 8 {
		t.Fatalf("ReadBytes returned %d bytes, want 8", len(raw))
	}
	// out[1] == 1, little-endian word at offset 4.
	if raw[4] != 1 || raw[5] != 0 {
		t.Fatalf("ReadBytes content mismatch: % x", raw)
	}
}

func TestProfileHotAndFormat(t *testing.T) {
	p := compileProgram(t, profileSrc)
	res, prof, err := profileRun(p, "fill", []int64{8})
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	hot := prof.Hot(3)
	if len(hot) != 3 {
		t.Fatalf("Hot(3) returned %d entries", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Count > hot[i-1].Count {
			t.Fatalf("Hot not sorted: %d before %d", hot[i-1].Count, hot[i].Count)
		}
	}
	for _, h := range hot {
		if h.Count <= 0 {
			t.Fatalf("hot node %s has count %d", h.Node, h.Count)
		}
		if prof.Fires(h.Node) != h.Count {
			t.Fatalf("Fires(%s) = %d, Hot says %d", h.Node, prof.Fires(h.Node), h.Count)
		}
		if h.Utilization <= 0 || h.Utilization > 1 {
			t.Fatalf("utilization %f outside (0,1]", h.Utilization)
		}
	}
	// Asking for more entries than nodes must not pad.
	if all := prof.Hot(1 << 20); int64(len(all)) > res.Stats.OpsFired {
		t.Fatalf("Hot returned %d entries for %d fired ops", len(all), res.Stats.OpsFired)
	}
	var kindTotal int64
	for _, c := range prof.ByKind {
		kindTotal += c
	}
	if kindTotal != res.Stats.OpsFired {
		t.Fatalf("ByKind sums to %d, stats fired %d", kindTotal, res.Stats.OpsFired)
	}
	txt := prof.Format(5)
	if !strings.Contains(txt, "firing counts by kind:") || !strings.Contains(txt, "hottest 5 operators:") {
		t.Fatalf("Format missing sections:\n%s", txt)
	}
	if !strings.Contains(txt, "eta") {
		t.Fatalf("Format of a loop kernel should mention etas:\n%s", txt)
	}
}

// twinSrc has two functions whose circuits are alike node for node, so
// their nodes tie on count and on ID.
const twinSrc = `
int a[2];
int f(int x) { a[0] = x + 1; return x + 1; }
int g(int x) { a[1] = x + 1; return x + 1; }
int main(void) { return f(1) + g(2); }`

// TestProfileHotTotalOrder: nodes of different functions that tie on
// count and ID come out of Hot, and Format, in one order on every call:
// ties are ordered by function name, then node ID, and every entry
// names its function.
func TestProfileHotTotalOrder(t *testing.T) {
	p := compileProgram(t, twinSrc)
	_, prof, err := profileRun(p, "main", nil)
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	hot := prof.Hot(1 << 20)
	text := prof.Format(1 << 20)
	for i := 0; i < 200; i++ {
		again := prof.Hot(1 << 20)
		if len(again) != len(hot) {
			t.Fatalf("call %d: %d entries, first call %d", i, len(again), len(hot))
		}
		for j := range again {
			if again[j].Node != hot[j].Node {
				t.Fatalf("call %d: entry %d is %s, first call had %s", i, j, again[j].Node, hot[j].Node)
			}
		}
		if got := prof.Format(1 << 20); got != text {
			t.Fatalf("call %d: Format changed:\n%s\nfirst call:\n%s", i, got, text)
		}
	}
	funcs := map[string]bool{}
	for i, h := range hot {
		if g := p.Graph(h.Func); g == nil || g.Nodes[h.Node.ID] != h.Node {
			t.Fatalf("%s: Func %q is not its function", h.Node, h.Func)
		}
		funcs[h.Func] = true
		if i == 0 {
			continue
		}
		prev := hot[i-1]
		if prev.Count == h.Count && (prev.Func > h.Func || prev.Func == h.Func && prev.Node.ID >= h.Node.ID) {
			t.Errorf("tie at count %d out of order: %s.%s before %s.%s", h.Count, prev.Func, prev.Node, h.Func, h.Node)
		}
	}
	for _, fn := range []string{"main", "f", "g"} {
		if !funcs[fn] {
			t.Errorf("no hot node of %s: %v", fn, funcs)
		}
		if !strings.Contains(text, fn+".n") {
			t.Errorf("Format does not name %s:\n%s", fn, text)
		}
	}
}

// TestInspectorReadBytesPastMemSize reads a range that runs past the end
// of simulated memory: the bytes beyond it read as 0, as ReadWord does,
// instead of panicking.
func TestInspectorReadBytesPastMemSize(t *testing.T) {
	p := compileProgram(t, profileSrc)
	_, m, err := Prebuild(p).run("fill", []int64{8}, DefaultConfig(), Hooks{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	top := p.Layout.MemSize
	raw := m.mem.ReadBytes(top-2, 8)
	if len(raw) != 8 {
		t.Fatalf("ReadBytes returned %d bytes, want 8", len(raw))
	}
	for i, b := range raw {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if got := m.mem.Load(top-2, 4, true); got != 0 {
		t.Fatalf("ReadWord past MemSize = %d, want 0", got)
	}
}
