package experiments

import (
	"net/url"
	"testing"
)

// FuzzParseParams fuzzes the parameterized request surface: arbitrary
// query strings must never panic, and every accepted point must have a
// stable identity — canonicalization is idempotent (re-parsing the
// point's own Query lands on the same canonical string) and invariant
// under parameter order (url.Values map iteration is randomized, so
// parsing the same values twice exercises different orders).
func FuzzParseParams(f *testing.F) {
	f.Add("k=3&i0=0")
	f.Add("i0=0&k=3")
	f.Add("k=4&i0=0&i1=1")
	f.Add("c=3&i0=2")
	f.Add("k=2.5")
	f.Add("k=999999999999999999999")
	f.Add("q=1&k=3")
	f.Add("k=3&k=4")
	f.Add("k=%32")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, fam := range []Experiment{Registry()["E2"], Registry()["E15"]} {
			ps, err := ParseParams(fam, q)
			if err != nil {
				continue
			}
			// Idempotence: the point's own explicit spelling re-parses
			// to the same identity.
			rq, err := url.ParseQuery(ps.Query())
			if err != nil {
				t.Fatalf("%s: Query() %q is not a parseable query: %v", fam.ID, ps.Query(), err)
			}
			again, err := ParseParams(fam, rq)
			if err != nil {
				t.Fatalf("%s: accepted point %q rejected on re-parse: %v", fam.ID, ps.Query(), err)
			}
			if again.Canonical() != ps.Canonical() {
				t.Fatalf("%s: canonicalization not idempotent: %q vs %q", fam.ID, again.Canonical(), ps.Canonical())
			}
			// Order invariance: same values, fresh (randomized) map
			// iteration order, same canonical string.
			reordered, err := ParseParams(fam, q)
			if err != nil || reordered.Canonical() != ps.Canonical() {
				t.Fatalf("%s: same query parsed to %q then %q (err %v)", fam.ID, ps.Canonical(), reordered.Canonical(), err)
			}
		}
	})
}
