// Package transitive is the noalloc.Transitive golden fixture: annotated
// roots that reach allocating functions through call chains, interface
// dispatch, and recursion, plus the two chain cutters — an
// //imflow:allocok boundary and a //lint:ignore noalloc call site.
package transitive

type codec interface {
	encode() []byte
}

type heapCodec struct{}

func (heapCodec) encode() []byte { return make([]byte, 8) }

func alloc() int { return len(make([]int, 4)) }

func mid() int { return alloc() }

// entry reaches the allocating leaf through a two-hop chain; the witness
// names the full path.
//
//imflow:noalloc
func entry() int {
	return mid() // want "//imflow:noalloc function transitive.entry reaches allocating function transitive.alloc \(make allocates\) via transitive.entry → transitive.mid → transitive.alloc"
}

// viaIface reaches the allocation through interface dispatch: the fan-out
// edge to the sole implementation is followed.
//
//imflow:noalloc
func viaIface(c codec) int {
	return len(c.encode()) // want "//imflow:noalloc function transitive.viaIface reaches allocating function transitive.\(heapCodec\).encode \(make allocates\) via transitive.viaIface → transitive.\(heapCodec\).encode"
}

func pingPong(n int) int {
	if n == 0 {
		return len(make([]int, 1))
	}
	return pong(n)
}

func pong(n int) int { return pingPong(n - 1) }

// recurseRoot reaches an allocating function inside a recursion cycle;
// the walk must terminate and still report it.
//
//imflow:noalloc
func recurseRoot() int {
	return pingPong(3) // want "reaches allocating function transitive.pingPong \(make allocates"
}

// grow is a reviewed amortized boundary: the walk treats it as a leaf.
//
//imflow:allocok
func grow() []int { return make([]int, 16) }

// throughBoundary stays clean: the allocok boundary cuts the chain.
//
//imflow:noalloc
func throughBoundary() int {
	return len(grow())
}

// coldPath stays clean: the suppressed call site is pruned from the walk.
//
//imflow:noalloc
func coldPath() int {
	//lint:ignore noalloc fixture: reviewed cold initialization path
	return alloc()
}
