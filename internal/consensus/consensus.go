// Package consensus demonstrates the boundary that drives the whole
// paper: binary consensus is not solvable 1-resiliently (Lemma 2.1), and
// this impossibility is what connects the execution graph of §3.1 and
// forces the ε-agreement structure everything else builds on.
//
// Impossibility itself is a theorem; what this package runs is its
// observable face:
//
//   - RoundedAgreement — the natural attempt "solve ε-agreement, round
//     the output to {0,1}" — is refuted by the exhaustive explorer,
//     which finds a concrete interleaving where the two processes round
//     to different values (the path of §3.1 must cross 1/2 somewhere);
//   - WaitingConsensus — "process 1 waits for process 0's input and
//     adopts it" — is correct while nobody crashes, and the explorer
//     confirms it over every crash-free interleaving; but a single
//     crash of process 0 leaves process 1 waiting forever, which the
//     runtime reports as a deadlock: waiting is exactly what crash
//     resilience forbids.
package consensus

import (
	"fmt"
	"slices"

	"repro/internal/agreement"
	"repro/internal/memory"
	"repro/internal/sched"
)

// Violation describes a concrete execution refuting a consensus attempt.
type Violation struct {
	// Inputs of the two processes.
	Inputs [2]uint64
	// Outs are the decided values.
	Outs [2]uint64
	// Schedule is the pid sequence of the refuting interleaving.
	Schedule []int
	// Reason is the checker's message.
	Reason string
}

// RoundedAgreementProc is the doomed consensus attempt: run Algorithm 1
// (ε = 1/(2k+1)) and round the decision to the nearest binary value.
func RoundedAgreementProc(m *memory.Shared, k int, input uint64, out *uint64, decided *bool) sched.ProcFunc {
	return func(p *sched.Proc) error {
		d, err := agreement.Alg1Inline(p, m, k, input)
		if err != nil {
			return err
		}
		// Round num/den to {0,1}: den = 2k+1 is odd, no ties.
		if 2*d.Num > d.Den {
			*out = 1
		} else {
			*out = 0
		}
		*decided = true
		return nil
	}
}

// FindRoundingViolation explores the interleavings of the rounded
// ε-agreement attempt with mixed inputs and returns the first execution
// where consensus fails. By Lemma 2.1 one must exist for every k; the
// §3.1 connectivity argument says the adversary can park the two
// processes on the path edge that straddles 1/2.
func FindRoundingViolation(k int) (*Violation, error) {
	inputs := [2]uint64{0, 1}
	var outs [2]uint64
	var decided [2]bool
	factory := func() []sched.ProcFunc {
		outs = [2]uint64{}
		decided = [2]bool{}
		m := agreement.NewAlg1Memory()
		return []sched.ProcFunc{
			RoundedAgreementProc(m, k, inputs[0], &outs[0], &decided[0]),
			RoundedAgreementProc(m, k, inputs[1], &outs[1], &decided[1]),
		}
	}
	var found *Violation
	_, err := sched.Explore(factory, 0, func(r *sched.Result) bool {
		if e := r.Err(); e != nil {
			return true
		}
		if err := agreement.CheckConsensus(inputs[:], outs[:], decided[:]); err != nil {
			found = &Violation{Inputs: inputs, Outs: outs, Schedule: slices.Clone(r.Schedule), Reason: err.Error()}
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if found == nil {
		return nil, fmt.Errorf("consensus: no violation found for k=%d — Lemma 2.1 falsified?!", k)
	}
	return found, nil
}

// WaitingConsensusProcs is the 0-resilient protocol: process 0 decides
// its input and publishes it; process 1 waits for it and adopts it. It
// solves consensus when no process crashes — and blocks forever when
// process 0 does, which is why it is no counterexample to Lemma 2.1.
func WaitingConsensusProcs(m *memory.Shared, inputs [2]uint64, outs *[2]uint64, decided *[2]bool) []sched.ProcFunc {
	return []sched.ProcFunc{
		func(p *sched.Proc) error {
			pm := memory.Bind(p, m)
			if err := pm.WriteInput(inputs[0]); err != nil {
				return err
			}
			outs[0] = inputs[0]
			decided[0] = true
			return nil
		},
		func(p *sched.Proc) error {
			pm := memory.Bind(p, m)
			if err := pm.WriteInput(inputs[1]); err != nil {
				return err
			}
			v := pm.AwaitRead(0, func(memory.Value) bool { return m.InputWritten(0) })
			_ = v
			x, ok := pm.ReadInput(0).(uint64)
			if !ok {
				return fmt.Errorf("consensus: input register 0 empty after wait")
			}
			outs[1] = x
			decided[1] = true
			return nil
		},
	}
}
