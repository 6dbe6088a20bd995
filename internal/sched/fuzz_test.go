package sched

import "testing"

// FuzzParseSpec feeds arbitrary strings to the spec grammar. Parse must
// never panic — specs arrive from flags, config files, and HTTP — and a
// spec it accepts must parse again to an engine of the same name, so
// the name a report prints always identifies one configuration. The
// checked-in corpus under testdata/fuzz/FuzzParseSpec (replayed by
// plain go test) covers the parallel and delta-epoch grammars, bad
// workers= values, and duplicate keys; every registered example seeds
// it too.
func FuzzParseSpec(f *testing.F) {
	for _, info := range List() {
		f.Add(info.Example)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		e, err := Parse(spec)
		if err != nil {
			if e != nil {
				t.Fatalf("Parse(%q) returned an engine alongside error %v", spec, err)
			}
			return
		}
		again, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, then rejected: %v", spec, err)
		}
		if e.Name() != again.Name() {
			t.Fatalf("Parse(%q) named %q, then %q", spec, e.Name(), again.Name())
		}
	})
}
