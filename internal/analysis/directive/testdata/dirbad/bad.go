// Package dirbad is the directive-hygiene golden fixture: every
// annotation here is broken in a distinct way. The want+N offsets point
// at the directive lines, which must stay byte-exact (and which gofmt
// pins below a // separator at the bottom of each doc comment).
package dirbad

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

// want+2 "unknown directive //imflow:noaloc \(known verbs: allocok, locked\(<field>\), noalloc\)"
//
//imflow:noaloc
func typod() {}

// want+1 "inert directive: \"// imflow:noalloc\" has a space after the slashes, so no analyzer matches it"
// imflow:noalloc
func spaced() {}

// want+2 "malformed //imflow:locked directive: expected //imflow:locked\(<field>\)"
//
//imflow:locked
func (s *S) unclosed() {}

// want+2 "malformed //imflow:noalloc directive: trailing \" really\" disarms it"
//
//imflow:noalloc really
func trailing() {}

// want+2 "references \"gone\", which is not a field of the receiver struct"
//
//imflow:locked(gone)
func (s *S) dangling() { s.n++ }

// want+2 "is on a function with no receiver; the guard has no struct to live in"
//
//imflow:locked(mu)
func floating() {}

// want+2 "//imflow:noalloc must be in a function declaration's doc comment; here it arms nothing"
//
//imflow:noalloc
var misplaced = 0
