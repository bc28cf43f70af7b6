package iis

import (
	"fmt"
	"sort"
	"strings"
)

// Universe is the state space of a full-information protocol (Algorithm 3)
// over a finite input domain: the interned set of views reachable in any
// execution, and the round-indexed configuration sets
// C_0, C_1, ..., C_k of §7.1 used by Algorithm 4's round-preserving
// enumeration (Eq. 1).
//
// Views are interned: each distinct view gets an integer id, and a view at
// round r is the set of (process, round-(r-1) view id) pairs it saw.
// Alongside each view the universe tracks the midpoint estimate used by
// the ε-agreement decision map, as an exact rational num/2^round.
type Universe struct {
	// N is the number of processes.
	N int
	// K is the number of rounds enumerated.
	K int

	views []ViewInfo
	byKey map[string]int

	// Configs[r] lists the configurations (one view id per process)
	// reachable at round r, in canonical order. Configs[0] is the set of
	// initial configurations.
	Configs [][]Config

	cfgSets []map[string]bool
}

// Config is a global configuration: entry i is the view id of process i.
type Config []int

// ViewInfo describes one interned view.
type ViewInfo struct {
	// ID is the view's index in the universe.
	ID int
	// Round of the view (0 = initial/input view).
	Round int
	// Pid is the process holding the view.
	Pid int
	// Input is the process input (round 0 only).
	Input int
	// Seen lists (pid, view id) pairs of the previous round (round ≥ 1),
	// sorted by pid.
	Seen []SeenEntry
	// EstNum is the numerator of the midpoint estimate; the denominator
	// is 2^Round. Estimates realize the ε-agreement decision map.
	EstNum int
}

// SeenEntry is one component of a view: process Pid's previous-round view.
type SeenEntry struct {
	Pid  int
	View int
}

// key builds the canonical intern key of a view.
func viewKey(round, pid, input int, seen []SeenEntry) string {
	if round == 0 {
		return fmt.Sprintf("0|%d|%d", pid, input)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d|", round, pid)
	for _, s := range seen {
		fmt.Fprintf(&sb, "%d:%d,", s.Pid, s.View)
	}
	return sb.String()
}

// NewUniverse enumerates the full-information protocol's reachable
// configurations for k rounds over all the given initial input vectors,
// with one-round branching given by outcomes (use CollectOutcomes(n) for
// the IC model, ISOutcomes(n) for the IIS model).
func NewUniverse(n, k int, inputVectors [][]int, outcomes []CollectOutcome) *Universe {
	u := &Universe{N: n, K: k, byKey: map[string]int{}}

	// Round 0: input views.
	var c0 []Config
	seenCfg := map[string]bool{}
	for _, xs := range inputVectors {
		cfg := make(Config, n)
		for i := 0; i < n; i++ {
			cfg[i] = u.intern(ViewInfo{Round: 0, Pid: i, Input: xs[i], EstNum: xs[i]})
		}
		key := cfg.key()
		if !seenCfg[key] {
			seenCfg[key] = true
			c0 = append(c0, cfg)
		}
	}
	sortConfigs(c0)
	u.Configs = append(u.Configs, c0)
	u.cfgSets = append(u.cfgSets, seenCfg)

	for r := 1; r <= k; r++ {
		var next []Config
		nextSeen := map[string]bool{}
		for _, cfg := range u.Configs[r-1] {
			for _, oc := range outcomes {
				ncfg := make(Config, n)
				for i := 0; i < n; i++ {
					ncfg[i] = u.successorView(r, i, cfg, oc.Sees[i])
				}
				key := ncfg.key()
				if !nextSeen[key] {
					nextSeen[key] = true
					next = append(next, ncfg)
				}
			}
		}
		sortConfigs(next)
		u.Configs = append(u.Configs, next)
		u.cfgSets = append(u.cfgSets, nextSeen)
	}
	return u
}

// successorView interns the round-r view of process i that saw the
// previous-round views cfg[j] for j in sees.
func (u *Universe) successorView(r, i int, cfg Config, sees []int) int {
	seen := make([]SeenEntry, len(sees))
	for idx, j := range sees {
		seen[idx] = SeenEntry{Pid: j, View: cfg[j]}
	}
	// Midpoint estimate: (min+max)/2 of the seen estimates, scaled to
	// denominator 2^r. A previous-round estimate a/2^(r-1) becomes 2a/2^r.
	lo, hi := 0, 0
	for idx, s := range seen {
		e := u.views[s.View].EstNum
		if idx == 0 || e < lo {
			lo = e
		}
		if idx == 0 || e > hi {
			hi = e
		}
	}
	return u.intern(ViewInfo{Round: r, Pid: i, Seen: seen, EstNum: lo + hi})
}

// intern returns the id of the view, adding it if new.
func (u *Universe) intern(v ViewInfo) int {
	key := viewKey(v.Round, v.Pid, v.Input, v.Seen)
	if id, ok := u.byKey[key]; ok {
		return id
	}
	v.ID = len(u.views)
	u.views = append(u.views, v)
	u.byKey[key] = v.ID
	return v.ID
}

// Lookup returns the id of an already-interned view, or -1.
func (u *Universe) Lookup(round, pid, input int, seen []SeenEntry) int {
	if id, ok := u.byKey[viewKey(round, pid, input, seen)]; ok {
		return id
	}
	return -1
}

// View returns the interned view with the given id.
func (u *Universe) View(id int) ViewInfo { return u.views[id] }

// NumViews returns the number of distinct views across all rounds.
func (u *Universe) NumViews() int { return len(u.views) }

// Estimate returns the midpoint estimate of view id as (num, den).
func (u *Universe) Estimate(id int) (num, den int) {
	v := u.views[id]
	return v.EstNum, 1 << v.Round
}

// HasConfig reports whether cfg is a reachable round-r configuration.
func (u *Universe) HasConfig(r int, cfg Config) bool {
	return u.cfgSets[r][cfg.key()]
}

// FlatConfigs returns the round-preserving enumeration (Eq. 1) of all
// configurations of rounds 0..k-1, the iteration space of Algorithm 4:
// iteration ρ (1-based in the paper, 0-based here) corresponds to
// FlatConfigs()[ρ], and the window for simulated round r is exactly the
// block of round-(r-1) configurations.
func (u *Universe) FlatConfigs() []Config {
	var out []Config
	for r := 0; r < u.K; r++ {
		out = append(out, u.Configs[r]...)
	}
	return out
}

// RoundWindow returns the half-open iteration interval [lo, hi) of
// FlatConfigs holding the round-(r-1) configurations used to simulate
// round r ∈ 1..K.
func (u *Universe) RoundWindow(r int) (lo, hi int) {
	for i := 0; i < r-1; i++ {
		lo += len(u.Configs[i])
	}
	return lo, lo + len(u.Configs[r-1])
}

func (c Config) key() string {
	var sb strings.Builder
	for _, id := range c {
		fmt.Fprintf(&sb, "%d,", id)
	}
	return sb.String()
}

// sortConfigs orders configurations by key, computing each key once
// instead of twice per comparison.
func sortConfigs(cs []Config) {
	type keyed struct {
		key string
		cfg Config
	}
	ks := make([]keyed, len(cs))
	for i, c := range cs {
		ks[i] = keyed{c.key(), c}
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	for i := range ks {
		cs[i] = ks[i].cfg
	}
}

// BinaryInputVectors returns all 2^n binary input assignments.
func BinaryInputVectors(n int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		xs := make([]int, n)
		for i := 0; i < n; i++ {
			xs[i] = (mask >> i) & 1
		}
		out = append(out, xs)
	}
	return out
}
