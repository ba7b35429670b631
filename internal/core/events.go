package core

import (
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// event is a pending completion: at cycle, uop u's result becomes
// available (writeback). Events are ordered by (cycle, gseq) so that elder
// instructions' effects — in particular squashes — precede younger
// completions in the same cycle.
type event struct {
	cycle int64
	gseq  int64
	u     *uop
}

// eventHeap is a binary min-heap of events. It is hand-rolled rather than
// wrapping container/heap to avoid interface boxing in the hot loop.
type eventHeap struct {
	h []event
}

func eventLess(a, b event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.gseq < b.gseq
}

// push inserts an event.
func (eh *eventHeap) push(e event) {
	eh.h = append(eh.h, e)
	i := len(eh.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(eh.h[i], eh.h[parent]) {
			break
		}
		eh.h[i], eh.h[parent] = eh.h[parent], eh.h[i]
		i = parent
	}
}

// pop removes and returns the earliest event; callers must check len first.
func (eh *eventHeap) pop() event {
	top := eh.h[0]
	last := len(eh.h) - 1
	eh.h[0] = eh.h[last]
	eh.h = eh.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(eh.h) && eventLess(eh.h[l], eh.h[smallest]) {
			smallest = l
		}
		if r < len(eh.h) && eventLess(eh.h[r], eh.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		eh.h[i], eh.h[smallest] = eh.h[smallest], eh.h[i]
		i = smallest
	}
}

// peekCycle returns the earliest pending cycle, or false if empty.
func (eh *eventHeap) peekCycle() (int64, bool) {
	if len(eh.h) == 0 {
		return 0, false
	}
	return eh.h[0].cycle, true
}

// drainEvents processes all completions due at or before now.
func (c *Core) drainEvents(now int64) {
	for {
		cy, ok := c.events.peekCycle()
		if !ok || cy > now {
			return
		}
		e := c.events.pop()
		c.complete(e.u, now)
	}
}

// complete performs writeback for u at cycle now.
func (c *Core) complete(u *uop, now int64) {
	t := c.threads[u.tid]

	if u.squashPending || u.state == stateSquashed {
		// Squash-index filtering (§III-B): a squashed in-flight op drains
		// without writing back. Its shelf index becomes reusable.
		u.state = stateSquashed
		if u.toShelf && t.shelfCap > 0 {
			t.shelfIndexBusy[u.shelfIdx%int64(2*t.shelfCap)] = false
		}
		c.stats.SquashedWritebacksFiltered++
		// The drained op's last reference (this event) is gone: recycle.
		// Its wakeup edges died with the squash that marked it pending.
		c.freeUop(u)
		return
	}

	u.state = stateCompleted
	if u.hasDest() {
		c.tagReady[u.destTag] = true
		c.wakeTag(u.destTag)
		c.stats.PRFWrites++
		c.stats.TagBroadcasts++
	}
	c.steerer.OnComplete(c, t, u)

	switch {
	case u.inst.Op.IsMem():
		if u.inst.Op == isa.OpStore {
			c.ssets.StoreCompleted(c.taggedPC(u), u.gseq)
			c.wakeStoreWaiters(u)
			c.checkViolations(t, u, now)
		}
	case u.inst.Op == isa.OpBranch:
		t.pred.Resolve(u.inst.PC, u.inst.Taken, u.inst.Target, u.mispredict, u.predToken)
		if u.mispredict {
			t.mispredicts++
			c.obs.RecordSquash(obs.SquashMispredict)
			c.squash(t, u.seq+1, now)
			if t.fetchBlockedOn == u {
				// The resolving branch itself was blocking fetch.
				t.fetchBlockedOn = nil
			}
		}
	}

	if u.toShelf {
		c.retireShelfOp(t, u, now)
	}
}

// retireShelfOp commits a shelf instruction at writeback: shelf
// instructions retire out of program order the moment they write back,
// coordinated with the ROB through the shelf retire bitvector (§III-B).
func (c *Core) retireShelfOp(t *thread, u *uop, now int64) {
	u.state = stateRetired
	span := int64(2 * t.shelfCap)
	t.shelfRetired[u.shelfIdx%span] = true
	t.advanceShelfRetire()

	// Return the replaced extension tag, if any (§III-C): the previous
	// mapping's readers have all issued (in-order shelf issue).
	if u.hasDest() && u.prevTag != u.prevPRI {
		c.freeExtTag(u.prevTag)
	}

	if u.inst.Op == isa.OpStore {
		if u.coalesced {
			t.storeCoalesce++
		} else {
			c.hier.StoreCommit(u.inst.Addr, now)
			t.commitStore(u.inst.Addr>>3, now)
			if c.observer != nil {
				c.observer(uopEvent(EventStoreCommit, u, now))
			}
		}
	}
	t.retiredShelf++
}

// checkViolations scans the thread's load queue after store u resolves its
// address: any younger load that already issued and obtained its value
// without seeing this store has violated memory order; the pipeline
// flushes and restarts at the eldest such load (§III-D).
func (c *Core) checkViolations(t *thread, u *uop, now int64) {
	var victim *uop
	for _, v := range t.lq {
		if v.seq <= u.seq || !v.issued() || v.state == stateSquashed || v.squashPending {
			continue
		}
		if v.inst.Addr>>3 != u.inst.Addr>>3 {
			continue
		}
		if v.forwardedFromSeq == u.seq {
			continue // the load correctly forwarded from this store
		}
		// The load's scan happened at issue+1; if the store's address was
		// already visible then, the load saw it (no violation).
		if u.addrReadyCycle <= v.issueCycle+1 {
			continue
		}
		if victim == nil || v.seq < victim.seq {
			victim = v
		}
	}
	if victim == nil {
		return
	}
	t.memViolations++
	c.ssets.Violation(c.taggedPCOf(t, victim), c.taggedPC(u))
	c.obs.RecordSquash(obs.SquashMemOrder)
	c.squash(t, victim.seq, now)
}

// taggedPC namespaces a PC per thread for the shared store-sets tables,
// since threads run disjoint programs in disjoint address spaces. The
// thread id is folded across the whole word so low-bit table indices
// differ per thread.
func (c *Core) taggedPC(u *uop) uint64 {
	return u.inst.PC ^ (uint64(u.tid)+1)*0x9e3779b97f4a7c15
}

func (c *Core) taggedPCOf(t *thread, u *uop) uint64 {
	return u.inst.PC ^ (uint64(t.id)+1)*0x9e3779b97f4a7c15
}
