package dataflow

import (
	"errors"
	"testing"

	"spatial/internal/faultsim"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
)

const faultLoopSrc = `
int a[32];
int f(void) {
  int i;
  int s = 0;
  for (i = 0; i < 32; i++) a[i] = i * 7;
  for (i = 0; i < 32; i++) s = s * 3 + a[i];
  return s & 0xffffff;
}`

// TestDelayFaultsAbsorbed: a latency-insensitive circuit must produce the
// identical result under arbitrary injected delays — edge jitter, frozen
// nodes, stretched memory responses — only the schedule may change.
func TestDelayFaultsAbsorbed(t *testing.T) {
	p := optProgram(t, faultLoopSrc, opt.Full)
	want, err := Run(p, "f", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		inj := faultsim.NewJitter(seed, 0.2, 6)
		res, err := Prebuild(p).RunHooks("f", nil, DefaultConfig(), Hooks{Inject: inj})
		if err != nil {
			t.Fatalf("seed %d: jitter not absorbed: %v", seed, err)
		}
		if res.Value != want.Value {
			t.Fatalf("seed %d: jitter changed the result: %d vs %d", seed, res.Value, want.Value)
		}
	}
	plans := []faultsim.Plan{
		{Faults: []faultsim.Fault{{Op: faultsim.Freeze, Node: -1, Edge: -1, Nth: 9, Cycles: 100}}},
		{Faults: []faultsim.Fault{{Op: faultsim.MemStretch, Node: -1, Edge: -1, Nth: 3, Cycles: 200}}},
		{Faults: []faultsim.Fault{{Op: faultsim.Delay, Node: -1, Edge: -1, Nth: 40, Cycles: 64}}},
	}
	for i, plan := range plans {
		inj := faultsim.New(plan)
		res, err := Prebuild(p).RunHooks("f", nil, DefaultConfig(), Hooks{Inject: inj})
		if err != nil {
			t.Fatalf("plan %d (%v): not absorbed: %v", i, plan, err)
		}
		if res.Value != want.Value {
			t.Fatalf("plan %d (%v): changed the result: %d vs %d", i, plan, res.Value, want.Value)
		}
		if len(inj.Triggered()) == 0 {
			t.Fatalf("plan %d (%v): never triggered", i, plan)
		}
	}
}

// TestDroppedTokenDiagnosed is the headline robustness scenario: drop the
// first token a store emits and the memory-dependence chain starves; the
// run must end in a diagnosed deadlock whose report names the starved
// consumer of exactly that token.
func TestDroppedTokenDiagnosed(t *testing.T) {
	p := optProgram(t, faultLoopSrc, opt.None)
	g := p.Graph("f")
	store := findKind(g, pegasus.KStore)
	if store == nil {
		t.Fatal("no store in test program")
	}
	inj := faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
		{Op: faultsim.Drop, Graph: "f", Node: store.ID, Edge: -1, Token: true, Nth: 1},
	}})
	_, err := Prebuild(p).RunHooks("f", nil, DefaultConfig(), Hooks{Inject: inj})
	if err == nil {
		t.Fatal("dropped token was silently absorbed")
	}
	if len(inj.Triggered()) != 1 {
		t.Fatalf("drop never triggered: %v", inj.Triggered())
	}
	var de *DeadlockError
	var le *LivelockError
	var report *StuckReport
	switch {
	case errors.As(err, &de):
		report = de.Report
	case errors.As(err, &le):
		report = le.Report
	default:
		t.Fatalf("want a diagnosed deadlock/livelock, got %v", err)
	}
	// The starved node is a token consumer of the store; at least one
	// must appear in the report, blocked on a token wait.
	found := false
	for _, b := range report.Blocked {
		for _, w := range b.Waits {
			if w.Kind == WaitToken && w.Peer.ID == store.ID {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("report does not name a starved consumer of the store's token:\n%s", report.Render())
	}
}

// TestDroppedValueWedgesLoopRing: every dropped value delivery must land
// in one of exactly three outcomes — absorbed (checksum intact), a
// diagnosed deadlock with a non-empty report, or a wrong checksum WITH
// the drop on the injector's trigger log (a loss past a merge can
// misalign iteration streams and still complete; the circuit cannot see
// that, so the trigger record is what lets a differential oracle catch
// it). A wrong answer with no trigger on record is the only illegal
// outcome. Most drops in a loop ring must actually wedge it.
func TestDroppedValueWedgesLoopRing(t *testing.T) {
	p := optProgram(t, faultLoopSrc, opt.None)
	want, err := Run(p, "f", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wedged, misaligned int
	for nth := 1; nth <= 120; nth += 17 {
		inj := faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
			{Op: faultsim.Drop, Graph: "f", Node: -1, Edge: -1, Nth: nth},
		}})
		res, err := Prebuild(p).RunHooks("f", nil, DefaultConfig(), Hooks{Inject: inj})
		if err == nil {
			if res.Value != want.Value {
				if len(inj.Triggered()) == 0 {
					t.Fatalf("nth=%d: wrong answer %d vs %d with NO fault on record", nth, res.Value, want.Value)
				}
				misaligned++
			}
			continue
		}
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("nth=%d: want *DeadlockError, got %v", nth, err)
		}
		if len(de.Report.Blocked) == 0 {
			t.Fatalf("nth=%d: empty report:\n%s", nth, de.Report.Render())
		}
		wedged++
	}
	if wedged == 0 {
		t.Fatalf("no drop wedged the loop ring (misaligned=%d)", misaligned)
	}
	t.Logf("drops: %d wedged with diagnosis, %d oracle-visible misalignments", wedged, misaligned)
}

// TestMemFailDetected: a corrupted memory response must abort the run
// with ErrMemFault — never complete with a wrong answer.
func TestMemFailDetected(t *testing.T) {
	p := optProgram(t, faultLoopSrc, opt.None)
	inj := faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
		{Op: faultsim.MemFail, Node: -1, Edge: -1, Nth: 1},
	}})
	_, err := Prebuild(p).RunHooks("f", nil, DefaultConfig(), Hooks{Inject: inj})
	if !errors.Is(err, ErrMemFault) {
		t.Fatalf("want ErrMemFault, got %v", err)
	}
}

// TestDuplicateDeliveryNotSilent: duplicating a delivery either gets
// absorbed, detected, or — the tolerated worst case — changes the result
// only when the injector says it actually fired. A changed result with no
// trigger record would mean the injector perturbs runs it claims not to
// touch.
func TestDuplicateDeliveryNotSilent(t *testing.T) {
	p := optProgram(t, faultLoopSrc, opt.Full)
	want, err := Run(p, "f", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
		{Op: faultsim.Duplicate, Graph: "nosuch", Node: -1, Edge: -1, Nth: 1},
	}})
	res, err := Prebuild(p).RunHooks("f", nil, DefaultConfig(), Hooks{Inject: inj})
	if err != nil || res.Value != want.Value || len(inj.Triggered()) != 0 {
		t.Fatalf("non-matching plan perturbed the run: %v %v %v", res, err, inj.Triggered())
	}
}
