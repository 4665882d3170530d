// Tracing demonstrates the observability layer: it runs the Section 2
// memory kernel traced at two optimization levels, extracts each run's
// dynamic critical path, and shows the memory-optimization speedup as a
// shorter path and as fewer fire attempts stalled on a memory token. It
// also writes Chrome trace-event files viewable in about://tracing or
// https://ui.perfetto.dev.
package main

import (
	"fmt"
	"log"
	"os"

	"spatial"
)

const example = `
unsigned a[128];
unsigned w[128];

int bench(void) {
  int i;
  int s = 0;
  for (i = 0; i < 128; i++) { a[i] = i * 7 + 1; w[i] = i & 15; }
  for (i = 0; i < 126; i++) {
    a[i] += w[i];
    a[i] <<= a[i + 1] & 7;
    s += a[i];
  }
  return s & 0x7fffffff;
}`

func main() {
	for _, lv := range []spatial.Level{spatial.OptNone, spatial.OptFull} {
		cp, err := spatial.Compile(example,
			spatial.WithLevel(lv),
			spatial.WithMemory(spatial.PaperMemory(2)))
		if err != nil {
			log.Fatal(err)
		}
		res, tr, err := cp.RunTracedWith("bench", nil, cp.Sim, spatial.DefaultTrace())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %v: %d in %d cycles, %d token-wait stalls ==\n",
			lv, res.Value, res.Stats.Cycles, tr.TokenWaits())
		crit := tr.CriticalPath()
		fmt.Print(crit.Format(3))

		out := fmt.Sprintf("trace-%v.json", lv)
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", out)
	}
}
