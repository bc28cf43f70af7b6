package sched

import (
	"math/rand"
	"slices"
)

// Lowest always grants the lowest-numbered enabled process. It is the
// canonical deterministic policy and the default continuation used by the
// exhaustive explorer.
type Lowest struct{}

// Next implements Scheduler.
func (Lowest) Next(enabled []int) Decision { return Decision{Pid: enabled[0]} }

// RoundRobin cycles through process ids, granting the next enabled process
// after the previously granted one. It is a fair scheduler.
type RoundRobin struct {
	last int // last granted pid; zero value starts at process 0
	init bool
}

// Next implements Scheduler.
func (s *RoundRobin) Next(enabled []int) Decision {
	if !s.init {
		s.init = true
		s.last = enabled[0]
		return Decision{Pid: s.last}
	}
	for _, pid := range enabled {
		if pid > s.last {
			s.last = pid
			return Decision{Pid: pid}
		}
	}
	s.last = enabled[0]
	return Decision{Pid: s.last}
}

// Random grants a uniformly random enabled process. It is fair with
// probability 1. The seed makes runs reproducible.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Scheduler.
func (s *Random) Next(enabled []int) Decision {
	return Decision{Pid: enabled[s.rng.Intn(len(enabled))]}
}

// Solo runs process Pid alone while it is enabled, then halts the
// execution (everyone else is considered crashed from the start). It
// realizes the paper's solo executions.
type Solo struct {
	// Pid is the process that runs solo.
	Pid int
}

// Next implements Scheduler.
func (s Solo) Next(enabled []int) Decision {
	for _, pid := range enabled {
		if pid == s.Pid {
			return Decision{Pid: pid}
		}
	}
	return Decision{Pid: Halt}
}

// Sequential runs the processes one after the other in the given order:
// each process runs to completion (or until it blocks forever) before the
// next one starts. It realizes the paper's "p3 starts after p1 and p2 have
// terminated" scenarios.
type Sequential struct {
	// Order lists the pids in activation order. Processes not listed are
	// never scheduled (crashed at start).
	Order []int
}

// Next implements Scheduler.
func (s Sequential) Next(enabled []int) Decision {
	for _, want := range s.Order {
		for _, pid := range enabled {
			if pid == want {
				return Decision{Pid: pid}
			}
		}
	}
	return Decision{Pid: Halt}
}

// CrashAt wraps a scheduler and crashes given processes when their step
// counter reaches a threshold: process pid is crashed just before taking
// its Steps[pid]-th step (0 = crashed initially, before any step).
type CrashAt struct {
	// Inner chooses steps among processes not yet crashed.
	Inner Scheduler
	// Steps maps pid -> step index at which to crash it.
	Steps map[int]int

	taken   map[int]int
	crashed map[int]bool
}

// NewCrashAt returns a crash-injecting wrapper around inner.
func NewCrashAt(inner Scheduler, steps map[int]int) *CrashAt {
	return &CrashAt{
		Inner:   inner,
		Steps:   steps,
		taken:   make(map[int]int),
		crashed: make(map[int]bool),
	}
}

// Next implements Scheduler.
func (s *CrashAt) Next(enabled []int) Decision {
	// Crash any enabled process that has reached its threshold.
	for _, pid := range enabled {
		limit, ok := s.Steps[pid]
		if ok && !s.crashed[pid] && s.taken[pid] >= limit {
			s.crashed[pid] = true
			return Decision{Pid: pid, Crash: true}
		}
	}
	d := s.Inner.Next(enabled)
	if d.Pid >= 0 && !d.Crash {
		s.taken[d.Pid]++
	}
	return d
}

// Replay forces a prefix of pid choices, then delegates to Fallback
// (Lowest if nil). If a forced pid is not enabled, the lowest enabled
// process is chosen instead (the explorer never triggers this: it replays
// prefixes observed on the same deterministic system).
//
// Replay is the scheduler every explorer drives, and it records the run
// for them: each decision it returns, and a copy of the enabled set it
// chose from, in flat buffers that reset keeps across replays. The
// explorers read the path a replay took, and the branches it did not
// take, from that record; the Result carries no trace.
type Replay struct {
	// Prefix is the forced sequence of pids.
	Prefix []int
	// Fallback continues after the prefix; Lowest{} if nil.
	Fallback Scheduler

	pos int
	// picks[k] is the pid of decision k, and sets[ends[k-1]:ends[k]]
	// (from 0 for k = 0) the enabled set it was chosen from.
	picks []int
	sets  []int
	ends  []int
}

// Next implements Scheduler.
func (s *Replay) Next(enabled []int) Decision {
	d := s.choose(enabled)
	if d.Pid != Halt {
		s.picks = append(s.picks, d.Pid)
		s.sets = append(s.sets, enabled...)
		s.ends = append(s.ends, len(s.sets))
	}
	return d
}

func (s *Replay) choose(enabled []int) Decision {
	if s.pos < len(s.Prefix) {
		want := s.Prefix[s.pos]
		s.pos++
		if slices.Contains(enabled, want) {
			return Decision{Pid: want}
		}
		return Decision{Pid: enabled[0]}
	}
	if s.Fallback == nil {
		return Decision{Pid: enabled[0]}
	}
	return s.Fallback.Next(enabled)
}

// reset rearms the scheduler to force prefix from the first decision on,
// with an empty record whose buffers are kept for the next replay.
func (s *Replay) reset(prefix []int) {
	s.Prefix, s.pos = prefix, 0
	s.picks, s.sets, s.ends = s.picks[:0], s.sets[:0], s.ends[:0]
}

// reserve gives an empty record room for depth decisions chosen from
// sets enabled pids in all.
func (s *Replay) reserve(depth, sets int) {
	s.picks, s.ends = make([]int, 0, depth), make([]int, 0, depth)
	s.sets = make([]int, 0, sets)
}

// set returns the enabled set recorded for decision k.
func (s *Replay) set(k int) []int {
	lo := 0
	if k > 0 {
		lo = s.ends[k-1]
	}
	return s.sets[lo:s.ends[k]]
}
