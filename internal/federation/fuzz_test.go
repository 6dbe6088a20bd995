package federation

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// fuzzLinkBudget caps the total link count of the trees one fuzz input
// may make Load build, so the fuzzer spends its time on the grammar
// rather than on legal but large trees. Shapes topology refuses are not
// skipped: refusing them quickly is part of what is fuzzed.
const fuzzLinkBudget = 1 << 16

// FuzzLoadConfig feeds arbitrary bytes to the config loader. Config
// files arrive from ftserve -config and ftbench -planes-config, so Load
// must never panic; a config it accepts must Build; and Write→Load must
// round-trip it exactly. The checked-in corpus under
// testdata/fuzz/FuzzLoadConfig (replayed by plain go test) holds an
// fttopo gen output, a width whose link tables would take gigabytes,
// the removed racy parallel mode, a removed per-plane engine key, a bad
// duration and a negative weight.
func FuzzLoadConfig(f *testing.F) {
	var gen bytes.Buffer
	if err := Generate(2, 2, 4, 4, "level-wise,rollback", "hash").Write(&gen); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var pre FileConfig
		if json.NewDecoder(bytes.NewReader(data)).Decode(&pre) == nil {
			total := 0
			for _, ps := range pre.Planes {
				if links, err := topology.Size(ps.Levels, ps.Arity, ps.Width); err == nil {
					total += links
				}
			}
			if total > fuzzLinkBudget {
				t.Skipf("legal trees with %d links exceed the fuzz budget", total)
			}
		}
		fc, err := Load(bytes.NewReader(data))
		if err != nil {
			if fc != nil {
				t.Fatalf("Load returned a config alongside error %v", err)
			}
			return
		}
		cfg, err := fc.Build()
		if err != nil {
			t.Fatalf("accepted config does not build: %v", err)
		}
		if len(cfg.Planes) != len(fc.Planes) {
			t.Fatalf("Build made %d planes from %d specs", len(cfg.Planes), len(fc.Planes))
		}
		var out bytes.Buffer
		if err := fc.Write(&out); err != nil {
			t.Fatalf("Write: %v", err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("written config does not load: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(fc, again) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", again, fc)
		}
	})
}
