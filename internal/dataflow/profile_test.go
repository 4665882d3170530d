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
