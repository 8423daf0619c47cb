package sim

import (
	"math"
	"testing"

	"phpf/internal/core"
)

// TestIntrinsicEvaluation exercises every intrinsic and operator through the
// interpreter.
func TestIntrinsicEvaluation(t *testing.T) {
	src := `
program t
real r1, r2, r3, r4, r5, r6, r7, r8
integer k1
r1 = abs(-2.5)
r2 = sqrt(16.0)
r3 = exp(0.0)
r4 = max(1.0, 3.0, 2.0)
r5 = min(1.0, -3.0, 2.0)
k1 = mod(17, 5)
r6 = -r1
if (r1 > 2.0 and r2 >= 4.0) then
  r7 = 1.0
end if
if (not (r1 < 0.0) or r2 == 0.0) then
  r8 = 1.0
end if
end
`
	out := run(t, src, 1, core.DefaultOptions())
	want := map[string]float64{
		"r1": 2.5, "r2": 4, "r3": 1, "r4": 3, "r5": -3, "k1": 2,
		"r6": -2.5, "r7": 1, "r8": 1,
	}
	for name, w := range want {
		if g := out.Scalars[name]; math.Abs(g-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

// TestRelationalOperators checks all six comparisons.
func TestRelationalOperators(t *testing.T) {
	src := `
program t
real a, b, r1, r2, r3, r4, r5, r6
a = 2.0
b = 3.0
if (a == 2.0) r1 = 1.0
if (a /= b) r2 = 1.0
if (a < b) r3 = 1.0
if (a <= 2.0) r4 = 1.0
if (b > a) r5 = 1.0
if (b >= 3.0) r6 = 1.0
end
`
	out := run(t, src, 1, core.DefaultOptions())
	for _, name := range []string{"r1", "r2", "r3", "r4", "r5", "r6"} {
		if out.Scalars[name] != 1.0 {
			t.Errorf("%s not set", name)
		}
	}
}

// TestLoopSteps: positive non-unit and negative steps.
func TestLoopSteps(t *testing.T) {
	src := `
program t
parameter n = 10
real a(n)
integer i
do i = 1, n
  a(i) = 0.0
end do
do i = 1, 9, 2
  a(i) = 1.0
end do
do i = 10, 2, -2
  a(i) = 2.0
end do
end
`
	out := run(t, src, 2, core.DefaultOptions())
	want := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	for i, w := range want {
		if out.Arrays["a"][i] != w {
			t.Errorf("a[%d] = %v, want %v", i, out.Arrays["a"][i], w)
		}
	}
}

// TestZeroTripLoop: a loop whose bounds exclude execution.
func TestZeroTripLoop(t *testing.T) {
	src := `
program t
parameter n = 4
real a(n)
integer i
do i = 1, n
  a(i) = 5.0
end do
do i = 3, 2
  a(i) = 9.0
end do
end
`
	out := run(t, src, 2, core.DefaultOptions())
	for i := 0; i < 4; i++ {
		if out.Arrays["a"][i] != 5.0 {
			t.Errorf("a[%d] = %v", i, out.Arrays["a"][i])
		}
	}
}

// TestPrivatizedArrayOwnership drives privOwnerSet: a NEW array's statements
// execute on the owner of the alignment target, so a fully local sweep has
// no communication.
func TestPrivatizedArrayOwnership(t *testing.T) {
	src := `
program t
parameter n = 16
real a(n,n), w(n)
integer i, k
!hpf$ distribute (*,block) :: a
!hpf$ independent, new(w)
do k = 1, n
  do i = 1, n
    w(i) = a(i,k) * 2.0
  end do
  do i = 1, n
    a(i,k) = w(i) + 1.0
  end do
end do
end
`
	out := run(t, src, 4, core.DefaultOptions())
	if out.Stats.BytesMoved != 0 {
		t.Errorf("privatized sweep should be communication-free, moved %d bytes (%v)",
			out.Stats.BytesMoved, out.Stats)
	}
	// Values: a(i,k) = a(i,k)*2 + 1.
	for k := 1; k <= 16; k++ {
		for i := 1; i <= 16; i++ {
			if got := out.Arrays["a"][(k-1)*16+(i-1)]; got != 1.0 {
				t.Fatalf("a(%d,%d) = %v, want 1 (0*2+1)", i, k, got)
			}
		}
	}
}

// TestPartialPrivatizedOwnership: the Figure-6 pattern runs and the shifted
// read communicates only across block boundaries.
func TestPartialPrivatizedOwnership(t *testing.T) {
	src := `
program t
parameter nx = 4
parameter ny = 16
parameter nz = 16
real c(nx,ny,2), rsd(2,nx,ny,nz)
integer i, j, k
!hpf$ distribute (*,*,block,block) :: rsd
!hpf$ independent, new(c)
do k = 2, nz-1
  do j = 2, ny-1
    do i = 2, nx-1
      c(i,j,1) = rsd(2,i,j,k) + 1.0
    end do
  end do
  do j = 3, ny-1
    do i = 2, nx-1
      rsd(1,i,j,k) = c(i,j-1,1) * 2.0
    end do
  end do
end do
end
`
	out := run(t, src, 4, core.DefaultOptions())
	// Consistency vs. a sequential evaluation of the same code.
	nx, ny, nz := 4, 16, 16
	c := make([]float64, nx*ny*2)
	rsd := make([]float64, 2*nx*ny*nz)
	ridx := func(m, i, j, k int) int { return (m - 1) + 2*((i-1)+nx*((j-1)+ny*(k-1))) }
	cidx := func(i, j, m int) int { return (i - 1) + nx*((j-1)+ny*(m-1)) }
	for k := 2; k <= nz-1; k++ {
		for j := 2; j <= ny-1; j++ {
			for i := 2; i <= nx-1; i++ {
				c[cidx(i, j, 1)] = rsd[ridx(2, i, j, k)] + 1.0
			}
		}
		for j := 3; j <= ny-1; j++ {
			for i := 2; i <= nx-1; i++ {
				rsd[ridx(1, i, j, k)] = c[cidx(i, j-1, 1)] * 2.0
			}
		}
	}
	for i := range rsd {
		if math.Abs(out.Arrays["rsd"][i]-rsd[i]) > 1e-12 {
			t.Fatalf("rsd[%d] = %v, want %v", i, out.Arrays["rsd"][i], rsd[i])
		}
	}
}

// TestDivisionByZeroYieldsInf (Fortran-style: no trap in the model).
func TestDivisionSemantics(t *testing.T) {
	src := `
program t
real x, y
x = 1.0
y = x / 0.0
end
`
	out := run(t, src, 1, core.DefaultOptions())
	if !math.IsInf(out.Scalars["y"], 1) {
		t.Errorf("y = %v, want +Inf", out.Scalars["y"])
	}
}

// TestIntegerStoreRounds: integer variables round assigned real values.
func TestIntegerStoreRounds(t *testing.T) {
	src := `
program t
integer k
k = 7.0 / 2
end
`
	out := run(t, src, 1, core.DefaultOptions())
	// 7.0/2 is real division (3.5), rounded to 4 on integer store —
	// Fortran would truncate; our model documents round-to-nearest. (7/2,
	// integer division, truncates to 3: see TestIntegerDivisionTruncates.)
	if out.Scalars["k"] != 4 {
		t.Errorf("k = %v, want 4 (round-to-nearest store)", out.Scalars["k"])
	}
}
