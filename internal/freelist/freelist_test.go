package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListSurvivesGC is the property sync.Pool lacks and the serve
// paths need: a value put back is the value handed out next, however
// many collections ran in between.
func TestListSurvivesGC(t *testing.T) {
	var l List[[]byte]
	x := l.Get()
	*x = make([]byte, 0, 1<<10)
	l.Put(x)
	runtime.GC()
	runtime.GC()
	if y := l.Get(); y != x || cap(*y) != 1<<10 {
		t.Fatalf("Get after GC returned %p (cap %d), want the value put back (%p)", y, cap(*y), x)
	}
	if y := l.Get(); y == nil || y == x || *y != nil {
		t.Fatalf("Get on an empty list returned %p, want a new zero value", y)
	}
}

// TestListBounded: a burst larger than maxIdle does not stay resident.
func TestListBounded(t *testing.T) {
	var l List[int]
	burst := make([]*int, 3*maxIdle)
	for i := range burst {
		burst[i] = l.Get()
	}
	for _, x := range burst {
		l.Put(x)
	}
	if len(l.idle) != maxIdle {
		t.Fatalf("list keeps %d idle values after a burst of %d, want %d", len(l.idle), len(burst), maxIdle)
	}
}

// TestListConcurrent hands values between goroutines; no value may be
// held by two at once. Run under -race.
func TestListConcurrent(t *testing.T) {
	var l List[int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				*x++
				if *x != 1 {
					t.Error("value handed to two holders at once")
				}
				*x--
				l.Put(x)
			}
		}()
	}
	wg.Wait()
}
