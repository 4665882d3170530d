package cashd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatial/api"
	"spatial/internal/serve"
)

// FuzzCompileRequest feeds arbitrary bodies to POST /v1/compile through
// the daemon's handler: the wire decoder, request validation, the
// compiler and the error mapping. Every body up to 4 KiB must be
// answered 200, 400 or 422; a 200 carries the program key, and every
// other answer carries a typed api.Error whose class maps to the status
// sent. Run it with
//
//	go test -fuzz=FuzzCompileRequest -fuzztime=30s -run '^$' ./internal/cashd
func FuzzCompileRequest(f *testing.F) {
	const ok = `int f(void) { return 1; }`
	for _, body := range []string{
		`{"source":"int f(void) { return 1; }"}`,
		`{"source":"int f(int n) { int i; int s = 0; for (i = 0; i < n; i++) s += i; return s; }","level":3}`,
		`{"source":"int f(void) { return 1; }","passes":{"const_fold":true},"backend":"compiled"}`,
		// Malformed bodies.
		``,
		`{not json`,
		`null`,
		`[]`,
		`{}`,
		`{"source":""}`,
		`{"source":"int f(void) { return 1; }"} trailing`,
		`{"source":"int f(void) { return 1; }","bogus":1}`,
		`{"source":7}`,
	} {
		f.Add(body)
	}
	for _, p := range []api.Program{
		// Out-of-range configuration.
		{Source: ok, Sim: &api.SimConfig{Mem: &api.MemConfig{Kind: api.MemRealistic, L2Bytes: 8 << 20}}},
		{Source: ok, Sim: &api.SimConfig{EdgeCap: -1}},
		{Source: ok, Sim: &api.SimConfig{EdgeCap: 1}},
		{Source: ok, Sim: &api.SimConfig{EdgeCap: 2}},
		{Source: ok, Level: 9},
		{Source: ok, Backend: "fpga"},
		// Sources the compiler must reject: a brace initializer on a
		// scalar, and objects larger than the simulated memory.
		{Source: `int A = {0};`},
		{Source: `int a[1073741824]; int b; int f(void) { b = 7; a[1024] = 3; return b; }`},
		{Source: `int f(void) { int a[1073741824]; int b; b = 7; a[1024] = 3; return b; }`},
		{Source: `int a[2147483647]; int f(void) { return 0; }`},
	} {
		body, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}

	s, err := New(Config{Engine: serve.Config{Workers: 1, CacheEntries: 8}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 4<<10 {
			t.Skip()
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/"+api.Version+"/compile", strings.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			var cr api.CompileResponse
			if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || cr.Key == "" {
				t.Fatalf("%q: 200 without a compile response (%v): %s", body, err, w.Body)
			}
			return
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%q: status %d, want 200, 400 or 422: %s", body, w.Code, w.Body)
		}
		var e api.Error
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%q: status %d without a typed error body (%v): %s", body, w.Code, err, w.Body)
		}
		if e.Class.HTTPStatus() != w.Code || e.Status != w.Code || e.Message == "" {
			t.Fatalf("%q: status %d with error %+v", body, w.Code, e)
		}
	})
}
