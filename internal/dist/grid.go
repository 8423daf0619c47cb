// Package dist implements HPF data mapping: processor grids, DISTRIBUTE
// formats (block / cyclic / collapsed), ALIGN relations, and the ownership
// functions that the owner-computes rule and communication analysis are
// built on.
package dist

import (
	"fmt"
	"strings"

	"phpf/internal/ast"
)

// Grid is a (virtual) processor grid of one or more dimensions.
type Grid struct {
	Shape []int
}

// NewGrid returns a grid with the given shape. A rank above MaxRank is a
// programming error (IR construction rejects such programs), so it panics.
func NewGrid(shape ...int) *Grid {
	if len(shape) > MaxRank {
		panic(fmt.Sprintf("dist: grid rank %d exceeds MaxRank %d", len(shape), MaxRank))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Grid{Shape: s}
}

// Rank returns the number of grid dimensions.
func (g *Grid) Rank() int { return len(g.Shape) }

// Size returns the total number of processors.
func (g *Grid) Size() int {
	n := 1
	for _, d := range g.Shape {
		n *= d
	}
	return n
}

// Coords converts a linear processor id (row-major, dimension 0 slowest) to
// grid coordinates.
func (g *Grid) Coords(id int) []int {
	c := make([]int, len(g.Shape))
	for d := len(g.Shape) - 1; d >= 0; d-- {
		c[d] = id % g.Shape[d]
		id /= g.Shape[d]
	}
	return c
}

// ID converts grid coordinates to the linear processor id.
func (g *Grid) ID(coords []int) int {
	id := 0
	for d, c := range coords {
		id = id*g.Shape[d] + c
	}
	return id
}

func (g *Grid) String() string {
	parts := make([]string, len(g.Shape))
	for i, d := range g.Shape {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "(" + strings.Join(parts, "x") + ")"
}

// FactorShape factors nprocs into rank near-balanced dimensions (larger
// factors first), e.g. 16 over rank 2 → [4 4], 8 over rank 2 → [4 2].
func FactorShape(nprocs, rank int) []int {
	if rank <= 1 {
		return []int{nprocs}
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = 1
	}
	remaining := nprocs
	// Repeatedly take the smallest prime factor and assign it to the
	// currently smallest dimension; assign large factors first for balance.
	var factors []int
	for f := 2; f*f <= remaining; f++ {
		for remaining%f == 0 {
			factors = append(factors, f)
			remaining /= f
		}
	}
	if remaining > 1 {
		factors = append(factors, remaining)
	}
	// Largest factors first.
	for i := len(factors) - 1; i >= 0; i-- {
		// Find the smallest dimension.
		minDim := 0
		for d := 1; d < rank; d++ {
			if shape[d] < shape[minDim] {
				minDim = d
			}
		}
		shape[minDim] *= factors[i]
	}
	// Sort descending so dimension 0 is largest (deterministic layout).
	for i := 0; i < rank; i++ {
		for j := i + 1; j < rank; j++ {
			if shape[j] > shape[i] {
				shape[i], shape[j] = shape[j], shape[i]
			}
		}
	}
	return shape
}

// MaxRank is the largest grid, array or DISTRIBUTE rank the compiler
// accepts — Fortran's and HPF's limit. IR construction rejects anything
// larger with a positioned E003, so a ProcSet can keep its coordinates in a
// fixed inline array and every set operation stays allocation-free.
const MaxRank = ast.MaxRank

// ProcSet is a rectangular set of processors described per grid dimension:
// either a fixed coordinate or "all coordinates". This closed form covers
// everything owner-computes needs (owners of a reference, replication sets,
// reduction groups). It is a plain value: the coordinates live inline, so
// constructing, narrowing and joining sets never allocates and copies never
// alias.
type ProcSet struct {
	grid *Grid
	// coord[d] is the fixed coordinate in dimension d < rank, or -1 for all.
	coord [MaxRank]int32
	rank  uint8
}

// AllProcs is the set of all processors in the grid.
func AllProcs(g *Grid) ProcSet {
	s := ProcSet{grid: g, rank: uint8(len(g.Shape))}
	for d := range g.Shape {
		s.coord[d] = -1
	}
	return s
}

// SingleProc is the singleton set {coords}.
func SingleProc(g *Grid, coords []int) ProcSet {
	s := ProcSet{grid: g, rank: uint8(len(g.Shape))}
	for d := range g.Shape {
		s.coord[d] = int32(coords[d])
	}
	return s
}

// Grid returns the grid this set ranges over.
func (s ProcSet) Grid() *Grid { return s.grid }

// Fixed reports whether dimension d has a fixed coordinate, and which.
func (s ProcSet) Fixed(d int) (int, bool) {
	if s.coord[d] < 0 {
		return 0, false
	}
	return int(s.coord[d]), true
}

// WithDim returns a copy with dimension d fixed to c (or all if c == -1).
func (s ProcSet) WithDim(d, c int) ProcSet {
	s.coord[d] = int32(c)
	return s
}

// IsAll reports whether the set covers the whole grid.
func (s ProcSet) IsAll() bool {
	for _, c := range s.coord[:s.rank] {
		if c >= 0 {
			return false
		}
	}
	return true
}

// IsSingle reports whether the set is a single processor, and its id.
func (s ProcSet) IsSingle() (int, bool) {
	id := 0
	for d, c := range s.coord[:s.rank] {
		if c < 0 {
			return 0, false
		}
		id = id*s.grid.Shape[d] + int(c)
	}
	return id, true
}

// Count returns the number of processors in the set.
func (s ProcSet) Count() int {
	n := 1
	for d, c := range s.coord[:s.rank] {
		if c < 0 {
			n *= s.grid.Shape[d]
		}
	}
	return n
}

// Contains reports whether processor id is in the set.
func (s ProcSet) Contains(id int) bool {
	// Decode the id inline (dimension 0 slowest) instead of materializing
	// the coordinate vector; this runs on per-instance paths.
	for d := int(s.rank) - 1; d >= 0; d-- {
		ext := s.grid.Shape[d]
		c := id % ext
		id /= ext
		if w := s.coord[d]; w >= 0 && int32(c) != w {
			return false
		}
	}
	return true
}

// First returns the smallest processor id in the set (the deterministic
// representative AppendProcs lists first, without building the list).
func (s ProcSet) First() int {
	id := 0
	for d, c := range s.coord[:s.rank] {
		if c < 0 {
			c = 0
		}
		id = id*s.grid.Shape[d] + int(c)
	}
	return id
}

// Each calls f for every processor id in the set, ascending.
func (s ProcSet) Each(f func(id int)) {
	if id, ok := s.IsSingle(); ok {
		f(id)
		return
	}
	total := s.grid.Size()
	for id := 0; id < total; id++ {
		if s.Contains(id) {
			f(id)
		}
	}
}

// AppendProcs appends the processor ids in the set, ascending, to dst and
// returns the extended slice. Hot paths pass a buffer they own (truncated
// to length 0), so enumerating a set allocates nothing once the buffer has
// grown to the set's size.
func (s ProcSet) AppendProcs(dst []int) []int {
	if id, ok := s.IsSingle(); ok {
		return append(dst, id)
	}
	total := s.grid.Size()
	for id := 0; id < total; id++ {
		if s.Contains(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Union returns the smallest rectangular set covering both (dimension-wise:
// coordinates that differ become "all"). This over-approximation keeps
// owner sets in closed form; exact for the patterns owner-computes yields.
func (s ProcSet) Union(o ProcSet) ProcSet {
	for d := range s.coord[:s.rank] {
		if s.coord[d] != o.coord[d] {
			s.coord[d] = -1
		}
	}
	return s
}

// CoversSet reports whether every processor of o is in s.
func (s ProcSet) CoversSet(o ProcSet) bool {
	for d, c := range s.coord[:s.rank] {
		if c < 0 {
			continue // s spans the dimension
		}
		if o.coord[d] != c {
			return false // o has a different fixed coord, or spans the dim
		}
	}
	return true
}

// Equal reports set equality.
func (s ProcSet) Equal(o ProcSet) bool {
	return s.rank == o.rank && s.coord == o.coord
}

func (s ProcSet) String() string {
	parts := make([]string, s.rank)
	for d, c := range s.coord[:s.rank] {
		if c < 0 {
			parts[d] = "*"
		} else {
			parts[d] = fmt.Sprintf("%d", c)
		}
	}
	return "P(" + strings.Join(parts, ",") + ")"
}
