package msgpass

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/memory"
	"repro/internal/sched"
)

// Store is the abstract register interface the t-resilient algorithm A is
// written against: one full-information SWMR register per process holding
// the history of estimate numerators. Implementations realize the four
// pipeline stages of Theorem 1.3.
type Store interface {
	// N returns the number of processes/registers.
	N() int
	// WriteOwn replaces this process's register content.
	WriteOwn(hist []int64) error
	// ReadReg returns the content of register j (nil if never written).
	ReadReg(j int) ([]int64, error)
}

// DirectStore is stage A: plain unbounded shared memory.
type DirectStore struct {
	PM memory.Mem
}

// N implements Store.
func (s DirectStore) N() int { return s.PM.S.N() }

// WriteOwn implements Store.
func (s DirectStore) WriteOwn(hist []int64) error {
	return s.PM.Write(append([]int64(nil), hist...))
}

// ReadReg implements Store.
func (s DirectStore) ReadReg(j int) ([]int64, error) {
	v := s.PM.Read(j)
	if v == nil {
		return nil, nil
	}
	h, ok := v.([]int64)
	if !ok {
		return nil, fmt.Errorf("msgpass: register %d holds %T", j, v)
	}
	return h, nil
}

// NodeStore adapts a message-passing Node (stages A′, A″, B) to Store.
type NodeStore struct {
	Node *Node
}

// N implements Store.
func (s NodeStore) N() int { return s.Node.n() }

// WriteOwn implements Store.
func (s NodeStore) WriteOwn(hist []int64) error { return s.Node.ABDWrite(hist) }

// ReadReg implements Store.
func (s NodeStore) ReadReg(j int) ([]int64, error) {
	if j == s.Node.P.ID {
		return s.Node.copies[j].Hist, nil
	}
	return s.Node.ABDRead(j)
}

// EpsAgree is the t-resilient approximate-agreement algorithm A of the
// pipeline (the solvable task of Lemma 2.2, here in its t-resilient
// waiting form valid for t < n/2): in round r each process appends its
// estimate to its register, waits until n-t registers hold a round-r
// value, and adopts the midpoint of the observed round-r values. Any two
// round-r read sets of size n-t intersect (2(n-t) > n), so the estimate
// spread halves every round; after `rounds` rounds the decision solves
// binary 1/2^rounds-agreement. Estimates are exact: the numerator over
// denominator 2^r.
func EpsAgree(st Store, t, rounds int, input int64) (agreement.Decision, error) {
	if input != 0 && input != 1 {
		return agreement.Decision{}, fmt.Errorf("msgpass: input %d not binary", input)
	}
	n := st.N()
	est := input
	hist := make([]int64, 0, rounds)
	for r := 1; r <= rounds; r++ {
		hist = append(hist, est)
		if err := st.WriteOwn(hist); err != nil {
			return agreement.Decision{}, err
		}
		var vals []int64
		for {
			vals = vals[:0]
			for j := 0; j < n; j++ {
				h, err := st.ReadReg(j)
				if err != nil {
					return agreement.Decision{}, err
				}
				if len(h) >= r {
					vals = append(vals, h[r-1])
				}
			}
			if len(vals) >= n-t {
				break
			}
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		est = lo + hi // denominator doubles: (lo+hi)/2 over 2^r
	}
	return agreement.Dec(int(est), 1<<rounds), nil
}

// PipelineStage selects which realization of the register store runs.
type PipelineStage int

// The four stages of Theorem 1.3 (DESIGN.md E5).
const (
	StageDirect      PipelineStage = iota + 1 // A: unbounded shared memory
	StageABDComplete                          // A′: ABD over the complete network
	StageABDRing                              // A″: ABD over the t-augmented ring
	StageBitRing                              // B: ring links over 3(t+1)-bit registers
)

// String names the stage.
func (s PipelineStage) String() string {
	switch s {
	case StageDirect:
		return "A:shared-memory"
	case StageABDComplete:
		return "A':abd-complete"
	case StageABDRing:
		return "A'':abd-ring"
	case StageBitRing:
		return "B:alt-bit-ring"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// PipelineConfig configures one pipeline run.
type PipelineConfig struct {
	Stage     PipelineStage
	N, T      int
	Rounds    int
	Inputs    []int64
	WriteBack bool
	Seed      int64 // delivery adversary for queue networks
	Scheduler sched.Scheduler
	MaxSteps  int
}

// PipelineResult reports one pipeline run.
type PipelineResult struct {
	Outs    []agreement.Decision
	Decided []bool
	Res     *sched.Result
	// RegisterBits is the width of the coordination registers used
	// (0 = unbounded, for stages A/A′/A″ whose boundedness is not the
	// point; 3(t+1) for stage B).
	RegisterBits int
	// MsgsSent counts link-level sends (queue stages).
	MsgsSent int
	// BitsDelivered counts link bits (stage B).
	BitsDelivered int
}

// Check validates the outputs of the correct processes against binary
// ε-agreement with ε = 1/2^rounds.
func (pr *PipelineResult) Check(inputs []int64, rounds int) error {
	ins := make([]uint64, len(inputs))
	for i, v := range inputs {
		ins[i] = uint64(v)
	}
	return agreement.CheckBinaryEps(ins, pr.Outs, pr.Decided, 1, 1<<rounds)
}

// RunPipeline executes one stage of the Theorem 1.3 pipeline. A process
// error or an exhausted step budget fails the stage, whatever the
// processes that did decide agreed on. Node stages end at quiescence,
// which the runner reports as Deadlocked (see ServeForever): that is
// normal termination, and leaves every Errs entry nil.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("msgpass: %d inputs for n=%d", len(cfg.Inputs), cfg.N)
	}
	if cfg.Stage != StageDirect && (cfg.T < 1 || 2*cfg.T >= cfg.N) {
		return nil, fmt.Errorf("msgpass: stage %v needs 1 ≤ t < n/2", cfg.Stage)
	}
	pr := &PipelineResult{
		Outs:    make([]agreement.Decision, cfg.N),
		Decided: make([]bool, cfg.N),
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 4 << 20
	}

	procs := make([]sched.ProcFunc, cfg.N)
	var qn *QueueNet
	var bn *BitNet
	switch cfg.Stage {
	case StageDirect:
		mem := memory.New(cfg.N, 0)
		for i := 0; i < cfg.N; i++ {
			procs[i] = func(p *sched.Proc) error {
				st := DirectStore{PM: memory.Bind(p, mem)}
				d, err := EpsAgree(st, cfg.T, cfg.Rounds, cfg.Inputs[p.ID])
				if err != nil {
					return err
				}
				pr.Outs[p.ID] = d
				pr.Decided[p.ID] = true
				return nil
			}
		}

	case StageABDComplete, StageABDRing, StageBitRing:
		var topo Topology
		if cfg.Stage == StageABDComplete {
			topo = Complete{Nodes: cfg.N}
		} else {
			ring, err := NewTAugmentedRing(cfg.N, cfg.T)
			if err != nil {
				return nil, err
			}
			topo = ring
		}
		var ll LinkLayer
		if cfg.Stage == StageBitRing {
			bn = NewBitNet(topo)
			ll = bn
			pr.RegisterBits = bn.RegisterBits()
		} else {
			qn = NewQueueNet(topo, cfg.Seed)
			ll = qn
		}
		for i := 0; i < cfg.N; i++ {
			procs[i] = func(p *sched.Proc) error {
				nd := NewNode(p, ll, cfg.T, cfg.WriteBack)
				d, err := EpsAgree(NodeStore{Node: nd}, cfg.T, cfg.Rounds, cfg.Inputs[p.ID])
				if err != nil {
					return nd.Errf(err)
				}
				pr.Outs[p.ID] = d
				pr.Decided[p.ID] = true
				// Keep serving until global quiescence (see ServeForever).
				return nd.Errf(nd.ServeForever())
			}
		}
	default:
		return nil, fmt.Errorf("msgpass: unknown stage %v", cfg.Stage)
	}

	res, err := sched.Run(sched.Config{Scheduler: cfg.Scheduler, MaxSteps: maxSteps}, procs)
	if err != nil {
		return nil, err
	}
	pr.Res = res
	if qn != nil {
		pr.MsgsSent = qn.Sent
	}
	if bn != nil {
		pr.BitsDelivered = bn.Bits
	}
	if res.BudgetExceeded {
		return pr, fmt.Errorf("msgpass: stage %v exceeded step budget", cfg.Stage)
	}
	for i, e := range res.Errs {
		if e != nil {
			return pr, fmt.Errorf("msgpass: stage %v: process %d: %w", cfg.Stage, i, e)
		}
	}
	return pr, nil
}
