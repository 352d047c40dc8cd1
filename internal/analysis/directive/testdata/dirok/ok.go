// Package dirok is the directive-hygiene clean fixture: every known verb,
// well-formed and attached where its analyzer looks for it.
package dirok

import "sync"

type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// bump holds a well-formed locked directive naming a real receiver field.
//
//imflow:locked(mu)
func (s *S) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

//imflow:noalloc
func hot() int { return 1 }

//imflow:allocok
func cold() []int { return make([]int, 1) }
