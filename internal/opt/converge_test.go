package opt

import (
	"fmt"
	"testing"

	"spatial/internal/progen"
	"spatial/internal/workloads"
)

// TestNoChangeMeansNoChange runs every iterative pass over the 22 suite
// programs and progen seeds 1–40 at -O full and requires each run that
// reports no change to leave the graph's dump as it found it. The pass
// driver stops rewriting after a round in which no pass reported a
// change; a pass that builds nodes it then leaves unused (as
// PredAndNot's ¬b once was) reports no change, DCE deletes the nodes,
// and the next round builds them again, so the graph never converges
// and the driver runs all its rounds.
func TestNoChangeMeansNoChange(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, w := range workloads.All() {
		progs = append(progs, program{w.Name, w.Source})
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen-%d", seed), progen.Generate(progen.DefaultConfig(seed))})
	}
	run := runPass
	defer func() { runPass = run }()
	var prog string
	bad := 0
	runPass = func(c *ctx, ps pass) (bool, error) {
		before := c.g.Dump()
		changed, err := run(c, ps)
		if err == nil && !changed && c.g.Dump() != before {
			if bad++; bad <= 5 {
				t.Errorf("%s: %s in %s reported no change but changed the graph", prog, ps.name, c.g.Name)
			}
		}
		return changed, err
	}
	for _, p := range progs {
		prog = p.name
		compileAt(t, p.src, Full)
	}
	if bad > 5 {
		t.Errorf("%d pass runs in all reported no change but changed the graph", bad)
	}
}
