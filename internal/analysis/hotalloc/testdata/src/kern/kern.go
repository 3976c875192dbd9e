// Fixture for the hotalloc analyzer: every //monet:kernel function
// below seeds one violation class or pins one compliant idiom.
package kern

import "fmt"

func sink(v any) {}

// notKernel is unannotated: hotalloc must ignore it entirely.
func notKernel(n int) {
	for i := 0; i < n; i++ {
		_ = make([]int, 8)
	}
}

//monet:kernel
func makeInLoop(n int) {
	for i := 0; i < n; i++ {
		_ = make([]int, 8) // want "make inside kernel loop allocates per iteration"
	}
}

//monet:kernel
func newInLoop(n int) {
	for i := 0; i < n; i++ {
		_ = new(int) // want "new inside kernel loop allocates per iteration"
	}
}

//monet:kernel
func appendUnprealloc(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want "append in kernel loop grows out"
	}
	return out
}

//monet:kernel
func appendEmptyLiteral(n int) []int {
	out := []int{}
	for i := 0; i < n; i++ {
		out = append(out, i) // want "append in kernel loop grows out"
	}
	return out
}

//monet:kernel
func appendCapacityLessMake(n int) []int {
	out := make([]int, 0)
	for i := 0; i < n; i++ {
		out = append(out, i) // want "append in kernel loop grows out"
	}
	return out
}

// appendCallerOwned pins the into-caller-buffer idiom: appending to a
// parameter (or a reslice of one) is the intended kernel shape.
//
//monet:kernel
func appendCallerOwned(dst []int32, n int) []int32 {
	out := dst[:0]
	for i := 0; i < n; i++ {
		out = append(out, int32(i))
	}
	return out
}

// appendPrealloc pins the sized-up-front shape.
//
//monet:kernel
func appendPrealloc(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

//monet:kernel
func closureCapture(n int) {
	fns := make([]func() int, 0, n)
	for i := 0; i < n; i++ {
		j := i
		fns = append(fns, func() int { return j }) // want "closure inside kernel loop captures loop state"
	}
	_ = fns
}

// hoistedClosure pins the compliant form: a closure created outside
// the loop captures nothing per-iteration.
//
//monet:kernel
func hoistedClosure(xs []int) int {
	add := func(a, b int) int { return a + b }
	s := 0
	for _, x := range xs {
		s = add(s, x)
	}
	return s
}

//monet:kernel
func fmtInKernel(ok bool) error {
	if !ok {
		return fmt.Errorf("bad input") // want "fmt.Errorf allocates"
	}
	return nil
}

//monet:kernel
func fmtAllowed(ok bool) error {
	if !ok {
		//monet:allow hotalloc cold error path, runs at most once per query
		return fmt.Errorf("bad input")
	}
	return nil
}

//monet:kernel
func concatInKernel(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//monet:kernel
func constConcat() string {
	return "a" + "b" // constant-folded: no allocation, no finding
}

//monet:kernel
func argBoxing(x int) {
	sink(x) // want "boxed into interface"
}

//monet:kernel
func convBoxing(x int) any {
	return any(x) // want "boxed into interface"
}

//monet:kernel
func assignBoxing(x int) {
	var v any
	v = x // want "boxed into interface"
	_ = v
}

// typeParamConv pins that converting to a type parameter does not
// report: the value keeps its shape's representation, unboxed.
//
//monet:kernel
func typeParamConv[P int32 | uint32](out []P, n int) {
	for i := 0; i < n; i++ {
		out[i] = P(i)
	}
}

// ifaceThrough pins that interface-to-interface moves do not report.
//
//monet:kernel
func ifaceThrough(v any) {
	sink(v)
}
