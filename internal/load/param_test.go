package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
)

// loadFamilies returns a synthetic parameterized family for planner
// tests: one integer parameter x, default 1.
func loadFamilies(id string) map[string]experiments.Family {
	return map[string]experiments.Family{
		id: {
			ID: id,
			Params: []experiments.ParamSpec{
				{Name: "x", Kind: experiments.ParamInt, Default: "1", Min: 0, Max: 9},
			},
			Run: func(ps experiments.ParamSet) (*experiments.Table, sched.MemoStats, error) {
				return &experiments.Table{ID: id}, sched.MemoStats{}, nil
			},
		},
	}
}

// TestParseMixMergesDuplicates: a repeated kind folds its weights into
// the first occurrence instead of erroring or double-rotating — so
// "whole:2,slice:1,whole:3" is the 5:1 mix the operator summed up.
func TestParseMixMergesDuplicates(t *testing.T) {
	mix, err := ParseMix("whole:2,slice:1,whole:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []MixEntry{{Kind: KindWhole, Weight: 5}, {Kind: KindSlice, Weight: 1}}
	if len(mix) != 2 || mix[0] != want[0] || mix[1] != want[1] {
		t.Fatalf("mix = %+v, want %+v", mix, want)
	}
	mix, err = ParseMix("param:1,whole:1,param:2")
	if err != nil {
		t.Fatal(err)
	}
	want = []MixEntry{{Kind: KindParam, Weight: 3}, {Kind: KindWhole, Weight: 1}}
	if len(mix) != 2 || mix[0] != want[0] || mix[1] != want[1] {
		t.Fatalf("mix = %+v, want %+v", mix, want)
	}
}

// TestMixRotationWithParamKind pins the deterministic rotation across
// all three kinds: arrivals walk the weighted kind cycle in order, and
// each kind's paths cycle independently — the same config always
// issues the same request sequence.
func TestMixRotationWithParamKind(t *testing.T) {
	opts := &Options{
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 2}, {Kind: KindParam, Weight: 1}},
		Experiments: []string{"P1"},
		Families:    loadFamilies("P1"),
		ParamPoints: []string{"P1:x=3", "P1:x=4"},
	}
	p, err := buildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var paramPaths []string
	for i := int64(0); i < 9; i++ {
		kind, path, _ := p.next(i)
		counts[kind]++
		if kind == KindParam {
			paramPaths = append(paramPaths, path)
		}
	}
	if counts[KindWhole] != 6 || counts[KindParam] != 3 {
		t.Fatalf("rotation counts = %v, want whole 6, param 3", counts)
	}
	// Two planned points, three param arrivals: the rotation wraps in
	// plan order.
	for i, path := range paramPaths {
		wantX := []string{"4", "3", "4"}[i%3] // paramN pre-increments, so the cycle starts at the second point
		if !strings.Contains(path, "x="+wantX) {
			t.Fatalf("param arrival %d hit %q, want x=%s", i, path, wantX)
		}
	}
}

// TestBuildPlanParamDefaults: with no explicit points, every listed
// parameterized family contributes its default point, spelled out.
func TestBuildPlanParamDefaults(t *testing.T) {
	opts := &Options{
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}, {Kind: KindParam, Weight: 1}},
		Experiments: []string{"P1", "E9"},
		Families:    loadFamilies("P1"),
	}
	p, err := buildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.param) != 1 || !strings.Contains(p.param[0], "/experiments/P1?x=1") {
		t.Fatalf("param paths = %v, want P1's spelled-out default", p.param)
	}
}

func TestBuildPlanParamErrors(t *testing.T) {
	base := func() *Options {
		return &Options{
			Mix:         []MixEntry{{Kind: KindParam, Weight: 1}},
			Experiments: []string{"P1"},
			Families:    loadFamilies("P1"),
		}
	}
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"entry without family", func(o *Options) { o.ParamPoints = []string{"x=3"} }},
		{"unknown family", func(o *Options) { o.ParamPoints = []string{"Q9:x=3"} }},
		{"bad point", func(o *Options) { o.ParamPoints = []string{"P1:x=99"} }},
		{"no parameterized experiment", func(o *Options) { o.Experiments = []string{"E9"} }},
	}
	for _, tc := range cases {
		opts := base()
		tc.mutate(opts)
		if _, err := buildPlan(opts); err == nil {
			t.Errorf("%s: buildPlan succeeded", tc.name)
		}
	}
}

func TestNormalizeTargets(t *testing.T) {
	got, err := normalizeTargets([]string{" localhost:8080 ", "https://h:1/"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://localhost:8080", "https://h:1"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("normalized = %v, want %v", got, want)
	}
	cases := []struct {
		name    string
		targets []string
		wantErr string
	}{
		{"empty target", []string{"localhost:1", "  "}, "is empty"},
		{"no host", []string{"//"}, "not a valid address"},
		{"unparseable", []string{"ht tp"}, "not a valid address"},
		{"duplicate after normalization", []string{"localhost:1", "http://localhost:1/"}, "duplicate target"},
	}
	for _, tc := range cases {
		if _, err := normalizeTargets(tc.targets); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParamRequestsOnWire: a param-mix run sends the planned explicit
// queries to the fleet and reports the kind in the summary.
func TestParamRequestsOnWire(t *testing.T) {
	var whole, param atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/experiments/") {
			if r.URL.Query().Get("x") != "" {
				param.Add(1)
			} else {
				whole.Add(1)
			}
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()
	sum, err := Run(context.Background(), Options{
		Targets:     []string{ts.URL},
		QPS:         200,
		Duration:    300 * time.Millisecond,
		Mix:         []MixEntry{{Kind: KindWhole, Weight: 1}, {Kind: KindParam, Weight: 1}},
		Experiments: []string{"P1"},
		Families:    loadFamilies("P1"),
		ParamPoints: []string{"P1:x=2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary reported %d errors", sum.Errors)
	}
	if param.Load() == 0 || whole.Load() == 0 {
		t.Fatalf("wire counts: whole %d, param %d — both kinds must flow", whole.Load(), param.Load())
	}
	k, ok := sum.Kinds[KindParam]
	if !ok || k.Requests != param.Load() {
		t.Fatalf("summary kind %q = %+v, wire count %d", KindParam, k, param.Load())
	}
}
