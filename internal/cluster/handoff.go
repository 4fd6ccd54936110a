package cluster

// Hand-off sizing: a batch amortizes one channel operation over batchSize
// values, and up to handoffDepth full batches wait in the channel, so the
// producer can run that far ahead of the consumer before it blocks.
const (
	batchSize    = 256
	handoffDepth = 4
)

// handoff carries values from one producer goroutine to one consumer
// goroutine in fixed-size batches.
type handoff[T any] struct {
	full chan []T
	stop chan struct{} // closed by the consumer to abandon the stream

	out []T // producer's batch being filled
	in  []T // consumer's batch being read
	pos int // next value of in
}

func newHandoff[T any]() *handoff[T] {
	return &handoff[T]{
		full: make(chan []T, handoffDepth),
		stop: make(chan struct{}),
	}
}

// put appends v to the producer's batch, sending the batch once it is
// full. It returns false once the consumer has abandoned the stream.
func (h *handoff[T]) put(v T) bool {
	if h.out == nil {
		h.out = make([]T, 0, batchSize)
	}
	h.out = append(h.out, v)
	return len(h.out) < batchSize || h.flush()
}

// flush sends the producer's partial batch.
func (h *handoff[T]) flush() bool {
	if len(h.out) == 0 {
		return true
	}
	select {
	case h.full <- h.out:
		h.out = nil
		return true
	case <-h.stop:
		return false
	}
}

// close sends what the producer still holds and ends the stream.
func (h *handoff[T]) close() {
	h.flush()
	close(h.full)
}

// next returns the next value, or false once the stream has ended.
func (h *handoff[T]) next() (T, bool) {
	for h.pos == len(h.in) {
		b, ok := <-h.full
		if !ok {
			var zero T
			h.in, h.pos = nil, 0
			return zero, false
		}
		h.in, h.pos = b, 0
	}
	v := h.in[h.pos]
	h.pos++
	return v, true
}

// abandon tells the producer the consumer reads no further; its pending
// and later sends return false.
func (h *handoff[T]) abandon() { close(h.stop) }
