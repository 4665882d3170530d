package codegen_test

// The run surface both engines share: one precondition check
// (dataflow.CheckRun) and one hooked entry per engine (RunHooks). These
// tests pin that the engines reject the same runs with the same error
// text, that the VM refuses the observers and the fault injector it
// does not implement, and that any combination of hooks leaves a run's
// Result unchanged.

import (
	"context"
	"errors"
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
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

// TestCallErrorsIdentical: the two call failures that name their callee,
// a call to a declaration with no body and a call past the activation
// limit, fail with the same error text on both engines. The VM names the
// callee from the graph (the first) and from the lowered callee (the
// second).
func TestCallErrorsIdentical(t *testing.T) {
	cp, err := core.CompileSource(`
int ext(int x);
int deep(int n) { if (n == 0) return 0; return deep(n - 1) + 1; }
int f(int a) { if (a) return ext(a); return deep(50); }`)
	if err != nil {
		t.Fatal(err)
	}
	sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
	cfg := dataflow.DefaultConfig()
	cfg.MaxActivations = 10
	for _, tc := range []struct {
		arg  int64
		want error
	}{{1, dataflow.ErrUnbuiltCall}, {0, dataflow.ErrActivationLimit}} {
		_, errI := sh.Run("f", []int64{tc.arg}, cfg)
		_, errC := mod.Run("f", []int64{tc.arg}, cfg)
		switch {
		case !errors.Is(errI, tc.want) || !errors.Is(errC, tc.want):
			t.Errorf("f(%d): want %v: interp err=%v, compiled err=%v", tc.arg, tc.want, errI, errC)
		case errI.Error() != errC.Error():
			t.Errorf("f(%d): error text diverged:\n interp   %v\n compiled %v", tc.arg, errI, errC)
		}
	}
}

// TestVMRejectsObservers: the VM has no profiler, tracer or fault
// injector, so a run asking for any of them fails instead of silently
// running unobserved or unperturbed.
func TestVMRejectsObservers(t *testing.T) {
	cp, err := core.CompileSource(`int f(int a) { return a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	mod := codegen.Compile(cp.Program)
	for name, h := range map[string]dataflow.Hooks{
		"profile": {Profile: dataflow.NewProfile()},
		"trace":   {Trace: trace.New(trace.Config{})},
		"inject":  {Inject: core.NewInjector(core.FaultPlan{})},
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
		Inject:  core.NewInjector(core.FaultPlan{}),
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
		Events: count,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want || events != want.Stats.Events {
		t.Errorf("VM with Ctx and Events diverged (%d events hooked):\n got %+v\nwant %+v", events, got, want)
	}
}
