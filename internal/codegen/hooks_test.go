package codegen_test

// The run surface both engines share: one precondition check
// (dataflow.CheckRun) and one hooked entry per engine (RunHooks). These
// tests pin that the engines reject the same runs with the same error
// text, that the VM refuses the observers it does not implement, and
// that any combination of hooks leaves a run's Result unchanged.

import (
	"context"
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/faultsim"
	"spatial/internal/opt"
	"spatial/internal/trace"
	"spatial/internal/workloads"
)

// TestRejectionsIdentical: a run both engines refuse fails with the same
// error text on each, so difftest's error comparison cannot tell them
// apart.
func TestRejectionsIdentical(t *testing.T) {
	cp, err := core.CompileSource(`int f(int a) { return a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
	with := func(edit func(*dataflow.Config)) dataflow.Config {
		cfg := dataflow.DefaultConfig()
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name  string
		entry string
		args  []int64
		cfg   dataflow.Config
	}{
		{"unknown entry", "g", []int64{1}, dataflow.DefaultConfig()},
		{"wrong argument count", "f", []int64{1, 2}, dataflow.DefaultConfig()},
		{"negative MaxCycles", "f", []int64{1}, with(func(c *dataflow.Config) { c.MaxCycles = -1 })},
		{"negative MaxActivations", "f", []int64{1}, with(func(c *dataflow.Config) { c.MaxActivations = -1 })},
	}
	for _, tc := range cases {
		_, errI := sh.Run(tc.entry, tc.args, tc.cfg)
		_, errC := mod.Run(tc.entry, tc.args, tc.cfg)
		switch {
		case errI == nil || errC == nil:
			t.Errorf("%s: accepted: interp err=%v, compiled err=%v", tc.name, errI, errC)
		case errI.Error() != errC.Error():
			t.Errorf("%s: error text diverged:\n interp   %v\n compiled %v", tc.name, errI, errC)
		}
	}
}

// TestVMRejectsObservers: the VM has no profiler or tracer, so a run
// asking for either fails instead of silently running unobserved.
func TestVMRejectsObservers(t *testing.T) {
	cp, err := core.CompileSource(`int f(int a) { return a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	mod := codegen.Compile(cp.Program)
	for name, h := range map[string]dataflow.Hooks{
		"profile": {Profile: dataflow.NewProfile()},
		"trace":   {Trace: trace.New(trace.Config{})},
	} {
		if _, err := mod.RunHooks("f", []int64{1}, dataflow.DefaultConfig(), h); err == nil {
			t.Errorf("%s: VM run accepted an observer it cannot serve", name)
		}
	}
}

// TestAllHooksKeepResult: a run with every hook its engine accepts set at
// once — an empty fault plan, so nothing is perturbed — returns the plain
// run's Result on each engine, and the event hook sees every event.
func TestAllHooksKeepResult(t *testing.T) {
	w := workloads.ByName("adpcm_e")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
	cfg := dataflow.DefaultConfig()
	want, err := sh.Run(w.Entry, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events int64
	count := func(time, seq int64, act, node int) { events++ }

	got, err := sh.RunHooks(w.Entry, nil, cfg, dataflow.Hooks{
		Ctx:     context.Background(),
		Inject:  faultsim.New(faultsim.Plan{}),
		Profile: dataflow.NewProfile(),
		Trace:   trace.New(trace.Config{}),
		Events:  count,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want || events != want.Stats.Events {
		t.Errorf("interpreter with all five hooks diverged (%d events hooked):\n got %+v\nwant %+v", events, got, want)
	}

	events = 0
	got, err = mod.RunHooks(w.Entry, nil, cfg, dataflow.Hooks{
		Ctx:    context.Background(),
		Inject: faultsim.New(faultsim.Plan{}),
		Events: count,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want || events != want.Stats.Events {
		t.Errorf("VM with Ctx, Inject and Events diverged (%d events hooked):\n got %+v\nwant %+v", events, got, want)
	}
}
