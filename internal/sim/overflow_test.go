package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/parser"
	"phpf/internal/spmd"
)

func generate(t *testing.T, src string, nprocs int) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(res)
}

// TestOverflowGuardLoopBound: an adversarial (fuzz-reachable) loop bound far
// outside the exactly representable integer range is rejected with a
// structured eval.NumericError diagnostic instead of wrapping through the
// float conversion into a bogus trip count.
func TestOverflowGuardLoopBound(t *testing.T) {
	src := `
program t
real a(10)
real x
integer i, m
!hpf$ distribute (block) :: a
x = 1.0e30
m = x
do i = 1, m
  a(1) = a(1) + 1.0
end do
end
`
	_, err := RunContext(context.Background(), generate(t, src, 4), Config{})
	var ne *eval.NumericError
	if !errors.As(err, &ne) {
		t.Fatalf("expected *eval.NumericError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "2^53") {
		t.Fatalf("diagnostic should name the representable range: %v", err)
	}
}

// TestOverflowGuardArraySize: declarations whose element count cannot be
// allocated are rejected up front rather than overflowing the offset
// arithmetic at the first reference.
func TestOverflowGuardArraySize(t *testing.T) {
	src := `
program t
parameter n = 100000
real a(n,n)
integer i
!hpf$ distribute (block,*) :: a
do i = 1, n
  a(i,1) = 1.0
end do
end
`
	_, err := RunContext(context.Background(), generate(t, src, 4), Config{})
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("expected an array-size rejection, got %v", err)
	}
}

// TestSubscriptBoundsDiagnostic: an out-of-bounds subscript reports the
// array, the dimension, and the offending value.
func TestSubscriptBoundsDiagnostic(t *testing.T) {
	src := `
program t
parameter n = 8
real a(n)
integer i
!hpf$ distribute (block) :: a
do i = 1, n
  a(i+4) = 1.0
end do
end
`
	_, err := RunContext(context.Background(), generate(t, src, 4), Config{})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("expected a bounds diagnostic, got %v", err)
	}
}
