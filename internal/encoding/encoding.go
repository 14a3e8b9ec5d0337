// Package encoding implements the paper's §6 "Encoding" open problem: a
// file of k tokens is expanded into n ≥ k coded tokens, any k of which
// reconstruct the file (the behaviour of MDS erasure codes and rateless
// codes; we simulate the combinatorics, not the finite-field arithmetic,
// since only the distribution schedule is under study).
//
// Coding changes the completion predicate — a receiver is done once it
// holds any k coded tokens of each file it wants — and it pays for that
// flexibility with a larger token universe. Under lossy channels (a fault
// plan's Loss model, e.g. fault.Bernoulli) the redundancy lets receivers
// finish without waiting for retransmission of specific tokens, which is
// exactly the tradeoff §6 anticipates.
package encoding

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// File is a contiguous token group [Lo, Hi) in the coded universe, of
// which Threshold tokens suffice to reconstruct the original file.
type File struct {
	Lo, Hi    int
	Threshold int
}

// Coded is an OCD instance under (k, n) coding.
type Coded struct {
	// Inst is the expanded instance: each original file of k tokens is
	// replaced by n coded tokens; wants name the full coded group (so the
	// flooding heuristics keep working unchanged) but completion only
	// requires Threshold of them.
	Inst *core.Instance
	// Files lists the coded groups.
	Files []File
}

// Expand builds a coded instance from an uncoded one. The original token
// universe is partitioned into files of size k (the last file may be
// smaller; its threshold shrinks accordingly); each file becomes n coded
// tokens. Vertices holding any token of an original file are assumed to be
// able to produce all its coded tokens (they are sources); vertices wanting
// any of the file's tokens want the coded group.
func Expand(orig *core.Instance, k, n int) (*Coded, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("encoding: need n >= k >= 1, got k=%d n=%d", k, n)
	}
	if err := orig.Check(); err != nil {
		return nil, err
	}
	numFiles := (orig.NumTokens + k - 1) / k
	coded := core.NewInstance(orig.G, numFiles*n)
	var files []File
	for f := 0; f < numFiles; f++ {
		lo, hi := f*n, (f+1)*n
		origLo := f * k
		origHi := origLo + k
		if origHi > orig.NumTokens {
			origHi = orig.NumTokens
		}
		files = append(files, File{Lo: lo, Hi: hi, Threshold: origHi - origLo})
		for v := 0; v < orig.N(); v++ {
			holds, wants := false, false
			for t := origLo; t < origHi; t++ {
				holds = holds || orig.Have[v].Has(t)
				wants = wants || orig.Want[v].Has(t)
			}
			if holds {
				coded.Have[v].AddRange(lo, hi)
			}
			if wants {
				coded.Want[v].AddRange(lo, hi)
			}
		}
	}
	return &Coded{Inst: coded, Files: files}, nil
}

// Done reports coded completion: every vertex holds at least Threshold
// tokens of every coded group it wants.
func (c *Coded) Done(inst *core.Instance, possess []tokenset.Set) bool {
	for v := range possess {
		for _, f := range c.Files {
			if !wantsGroup(inst, v, f) {
				continue
			}
			if countInRange(possess[v], f.Lo, f.Hi) < f.Threshold {
				return false
			}
		}
	}
	return true
}

func wantsGroup(inst *core.Instance, v int, f File) bool {
	return inst.Want[v].Has(f.Lo)
}

func countInRange(s tokenset.Set, lo, hi int) int {
	n := 0
	for t := s.NextAfter(lo - 1); t >= 0 && t < hi; t = s.NextAfter(t) {
		n++
	}
	return n
}

// Run executes a heuristic on the coded instance under the fault plan (the
// zero Plan is lossless), with the threshold completion predicate layered
// onto the fault engine.
func (c *Coded) Run(factory sim.Factory, plan fault.Plan, opts sim.Options) (*fault.Result, error) {
	opts.Done = c.Done
	// Pruning against the full coded want sets would keep deliveries the
	// threshold semantics never needed; skip it.
	opts.Prune = false
	return fault.Run(c.Inst, factory, plan, opts)
}

// Overhead returns the token-universe expansion factor n/k aggregated over
// files, the price paid for loss resilience.
func (c *Coded) Overhead() float64 {
	coded, orig := 0, 0
	for _, f := range c.Files {
		coded += f.Hi - f.Lo
		orig += f.Threshold
	}
	if orig == 0 {
		return 0
	}
	return float64(coded) / float64(orig)
}
