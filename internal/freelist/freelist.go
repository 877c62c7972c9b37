// Package freelist provides the repository's one scratch-reuse
// container for serve paths.
package freelist

import "sync"

// maxIdle bounds the values a List keeps between uses; a Put past it
// drops the value for the collector. It only has to cover the requests
// or solve workers in flight at once on one server.
const maxIdle = 16

// List is a bounded, mutex-guarded LIFO free list of *T. Unlike a
// sync.Pool it is owned by its holder and survives garbage collections:
// on a small heap the collector runs every few dozen requests, and a
// pool emptied that often re-allocates its scratch (and everything the
// scratch had grown) each time. The zero value is ready to use.
type List[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// Get returns an idle value, or a new zero T when none is idle.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(T)
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return x
}

// Put makes x available to a later Get. The caller must not use x
// afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < maxIdle {
		l.idle = append(l.idle, x)
	}
}
