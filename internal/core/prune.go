package core

import "ocd/internal/tokenset"

// Prune implements the §5.1 post-pass: "Pruning first removes all moves
// that deliver a token repeatedly to the same vertex, and then works back
// from the last move to the first, removing moves that deliver tokens which
// were never used by the destination vertex."
//
// A delivered token is "used" if the destination wants it or if a kept
// later move sends it onward. Pruning never invalidates a valid schedule,
// never increases the move count, and preserves success; trailing and
// interior timesteps left empty are dropped (possession is monotone, so
// compressing empty steps keeps every constraint satisfied).
//
// Both passes work on the positions of moves within their step, held in
// one int32 buffer, so each surviving move is copied once, into the
// exact-size array the returned steps are carved from. Every returned
// step is capped at its own length: appending to one cannot overwrite the
// next.
func Prune(inst *Instance, sched *Schedule) *Schedule {
	// Pass 1: drop duplicate deliveries. A move is redundant if the
	// destination already possesses the token at the moment of delivery
	// (including an earlier kept move in the same timestep). Marking the
	// possession as each move is kept makes the within-step duplicate check
	// the same O(1) set probe as the cross-step one: pass 1 never reads
	// cur[v] for anything except (destination, token) membership, so the
	// early add is indistinguishable from the end-of-step add.
	//
	// Step i's first deliveries are at pos[lo[i]:hi[i]]. Only the
	// n·m − Σ|h(v)| pairs missing at the start can be delivered first, so
	// that bounds pos for every in-range schedule.
	cur := inst.InitialPossession()
	firsts := inst.N() * inst.NumTokens
	for _, h := range inst.Have {
		firsts -= h.Count()
	}
	pos := make([]int32, 0, max(0, min(sched.Moves(), firsts)))
	lo := make([]int, len(sched.Steps))
	hi := make([]int, len(sched.Steps))
	for i, st := range sched.Steps {
		lo[i] = len(pos)
		for j, mv := range st {
			if cur[mv.To].Has(mv.Token) {
				continue // duplicate delivery
			}
			cur[mv.To].Add(mv.Token)
			pos = append(pos, int32(j))
		}
		hi[i] = len(pos)
	}

	// Pass 2: backward sweep. needed[v] holds the tokens vertex v must
	// possess because it wants them or because a kept later move sends
	// them from v. Each step's survivors are compacted to the front of its
	// range of pos, and hi[i] moves back to their end.
	needed := make([]tokenset.Set, inst.N())
	for v := range needed {
		needed[v] = inst.Want[v].Clone()
	}
	kept, nonEmpty := 0, 0
	for i := len(sched.Steps) - 1; i >= 0; i-- {
		st := sched.Steps[i]
		w := lo[i]
		for _, p := range pos[lo[i]:hi[i]] {
			if mv := st[p]; !needed[mv.To].Has(mv.Token) {
				continue // delivery never used downstream
			}
			pos[w] = p
			w++
		}
		for _, p := range pos[lo[i]:w] {
			// The sender must possess the token before this step; protect
			// its (unique, by pass 1) earlier delivery or initial copy.
			needed[st[p].From].Add(st[p].Token)
		}
		hi[i] = w
		if w > lo[i] {
			kept += w - lo[i]
			nonEmpty++
		}
	}

	out := &Schedule{}
	if nonEmpty == 0 {
		return out
	}
	buf := make([]Move, 0, kept)
	out.Steps = make([]Step, 0, nonEmpty)
	for i, st := range sched.Steps {
		start := len(buf)
		for _, p := range pos[lo[i]:hi[i]] {
			buf = append(buf, st[p])
		}
		if end := len(buf); end > start {
			out.Steps = append(out.Steps, buf[start:end:end])
		}
	}
	return out
}
