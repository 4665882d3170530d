package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatial/api"
)

// FuzzDiskLoad writes arbitrary bytes as the one entry of a cache
// directory and starts an engine on it: the disk loader's JSON decode,
// version and mode checks, re-keying, quarantine, and the warm-up
// compile. Startup must never panic. The entry ends up loaded only if it
// re-hashes to its file name (and then only if it is current and
// compiles); any other entry leaves the top level of the directory,
// deleted or quarantined. With selfNamed the file is named by the key of
// whatever program the bytes decode to, so fuzzing reaches the load path
// and not only the rejections. Run it with
//
//	go test -fuzz=FuzzDiskLoad -fuzztime=30s -run '^$' ./internal/serve
func FuzzDiskLoad(f *testing.F) {
	entry := func(version string, p api.Program) []byte {
		b, err := json.Marshal(diskEntry{Version: version, Program: p})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	ok := api.Program{Source: "int f(void){return 1;}", Level: api.LevelFull}
	for _, seed := range []struct {
		body      []byte
		selfNamed bool
	}{
		{entry(api.Version, ok), true},
		{entry(api.Version, ok), false}, // mis-keyed
		{entry("v0", ok), true},         // stale wire version
		{entry(api.Version, api.Program{Source: ok.Source, Partitions: 4}), true},
		{entry(api.Version, api.Program{Source: ok.Source, Sim: &api.SimConfig{EdgeCap: 8}}), true},
		{entry(api.Version, api.Program{Source: ok.Source, Sim: &api.SimConfig{MaxCycles: 1000, EdgeCap: 1}}), true},
		{entry(api.Version, api.Program{Source: "int f( {"}), true}, // keys, but no longer compiles
		{entry(api.Version, api.Program{Source: ok.Source, Level: 9}), true},
		{[]byte(`{"version":"v1","program":{"source":"int f(void){return 1;}","sim":{"mem":{"kind":"quantum"}}}}`), true},
		{[]byte(`{not json`), false},
		{[]byte(``), false},
		{[]byte(`null`), true},
	} {
		f.Add(seed.body, seed.selfNamed)
	}

	f.Fuzz(func(t *testing.T, body []byte, selfNamed bool) {
		if len(body) > 4<<10 {
			t.Skip()
		}
		var ent diskEntry
		decoded := json.Unmarshal(body, &ent) == nil
		var key cacheKey
		keyed := false
		if decoded {
			if k, err := programKey(ent.Program); err == nil {
				key, keyed = k, true
			}
		}
		name := strings.Repeat("0", 64)
		if selfNamed && keyed {
			name = key.String()
		}
		dir := t.TempDir()
		path := filepath.Join(dir, name+diskSuffix)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}

		e, err := New(Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		s := e.Stats()
		_, statErr := os.Stat(path)
		present := statErr == nil
		matches := keyed && name == key.String()
		switch {
		case s.DiskLoaded+s.DiskQuarantined > 1:
			t.Fatalf("one entry counted as %d loaded and %d quarantined", s.DiskLoaded, s.DiskQuarantined)
		case s.DiskLoaded == 1 && !matches:
			t.Fatalf("loaded an entry that does not re-hash to its name %s: %q", name, body)
		case s.DiskLoaded == 1 && !present:
			t.Fatal("loaded entry removed from disk")
		case s.DiskLoaded == 0 && present:
			t.Fatalf("rejected entry left servable on disk (quarantined %d): %q", s.DiskQuarantined, body)
		case s.DiskQuarantined == 1 && matches:
			t.Fatalf("entry that re-hashes to its name was quarantined as corrupt: %q", body)
		}
		if q, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*")); len(q) != s.DiskQuarantined {
			t.Fatalf("quarantine holds %d files, stats say %d", len(q), s.DiskQuarantined)
		}
		if s.DiskLoaded == 0 && matches && ent.Version == api.Version && ent.Program.Partitions <= 1 {
			// A current, self-keyed entry is only dropped if the compiler
			// now rejects it.
			if _, err := compileRequest(Request{Program: ent.Program}); err == nil {
				t.Fatalf("valid entry was not loaded: %q", body)
			}
		}
	})
}
