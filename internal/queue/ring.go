package queue

// Ring is a growable FIFO ring buffer. The zero value is ready to use.
// Per-color pending-job queues are Rings: jobs of one color in a batched
// instance share a deadline, so FIFO order is deadline order.
type Ring[T any] struct {
	buf   []T
	head  int
	count int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.count }

// Push appends an item at the tail.
func (r *Ring[T]) Push(v T) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

// Pop removes and returns the head item. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.count == 0 {
		panic("queue: Pop on empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return v
}

// Peek returns the head item without removing it. It panics on an empty ring.
func (r *Ring[T]) Peek() T {
	if r.count == 0 {
		panic("queue: Peek on empty ring")
	}
	return r.buf[r.head]
}

// At returns the i-th queued item in FIFO order, 0 <= i < Len, without
// removing it: the checkpoint encoder walks a queue with it instead of
// copying it out.
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Clear removes all items, retaining capacity.
func (r *Ring[T]) Clear() {
	var zero T
	for i := 0; i < r.count; i++ {
		r.buf[(r.head+i)%len(r.buf)] = zero
	}
	r.head = 0
	r.count = 0
}

// Items returns the queued items in FIFO order without removing them; the
// checkpoint machinery uses it to serialize queues non-destructively.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Drain removes all items and returns them in FIFO order.
func (r *Ring[T]) Drain() []T {
	out := make([]T, 0, r.count)
	for r.count > 0 {
		out = append(out, r.Pop())
	}
	return out
}

func (r *Ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < r.count; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
