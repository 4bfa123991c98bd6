package server

import "roia/internal/rtf/transport"

// outbox stages every frame a tick produces, grouped by destination, and
// flushes each destination's frames as one batch at the end of the tick.
// Staging copies the payload into a per-destination arena (senders reuse
// their serialization buffers immediately), so in the steady state the
// whole send path allocates nothing; the flush hands the frames to the
// transport's BatchSender when available — one write per client per tick
// instead of a syscall per frame — and falls back to per-frame Send
// otherwise.
//
// Ordering: destinations flush in first-staged order and frames within a
// destination in staged order, both fully determined by the tick's
// sequential send sequence — the byte-identical-across-parallelism
// contract is unaffected.
type outbox struct {
	dests map[string]int
	bufs  []destBuf
}

// destBuf accumulates one destination's frames: payload bytes appended to
// a shared arena, with ends marking each frame's boundary, and a reusable
// frame-slice vector assembled at flush time.
type destBuf struct {
	to     string
	arena  []byte
	ends   []int
	frames [][]byte
}

// stage appends one payload for the destination, copying it into the
// destination's arena.
func (ob *outbox) stage(to string, payload []byte) {
	if ob.dests == nil {
		ob.dests = make(map[string]int)
	}
	idx, ok := ob.dests[to]
	if !ok {
		idx = len(ob.bufs)
		if idx < cap(ob.bufs) {
			ob.bufs = ob.bufs[:idx+1]
		} else {
			ob.bufs = append(ob.bufs, destBuf{})
		}
		ob.bufs[idx].to = to
		ob.dests[to] = idx
	}
	b := &ob.bufs[idx]
	b.arena = append(b.arena, payload...)
	b.ends = append(b.ends, len(b.arena))
}

// flush delivers every staged frame and resets the outbox for the next
// tick, retaining every buffer's capacity. Send errors are swallowed like
// the per-frame send path's: RTF transmits asynchronously and the next
// tick's update repairs a lost frame.
func (ob *outbox) flush(node transport.Node) {
	bs, batched := node.(transport.BatchSender)
	for i := range ob.bufs {
		b := &ob.bufs[i]
		b.frames = b.frames[:0]
		start := 0
		for _, end := range b.ends {
			b.frames = append(b.frames, b.arena[start:end])
			start = end
		}
		if batched {
			_ = bs.SendBatch(b.to, b.frames)
		} else {
			for _, f := range b.frames {
				_ = node.Send(b.to, f)
			}
		}
		b.to = ""
		b.arena = b.arena[:0]
		b.ends = b.ends[:0]
		b.frames = b.frames[:0]
	}
	ob.bufs = ob.bufs[:0]
	clear(ob.dests)
}
