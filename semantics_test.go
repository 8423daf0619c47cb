package phpf

import (
	"context"
	"strings"
	"testing"
)

// runBoth compiles src at P=4 and runs it on both backends.
func runBoth(t *testing.T, src string) map[string]*Report {
	t.Helper()
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Report{}
	for _, b := range []Backend{Simulator(), Concurrent()} {
		rep, err := c.Execute(context.Background(), b, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		out[b.Name()] = rep
	}
	return out
}

// runErr compiles src at P=4 and returns each backend's run error.
func runErr(t *testing.T, src string) map[string]error {
	t.Helper()
	c, err := Compile(src, 4, SelectedOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]error{}
	for _, b := range []Backend{Simulator(), Concurrent()} {
		_, out[b.Name()] = c.Execute(context.Background(), b, RunOptions{})
	}
	return out
}

// TestIntegerDivisionTruncates: integer ÷ integer truncates toward zero at
// run time, as constant propagation and PARAMETER folding already do, on
// both backends. Before, the runtime divided in floating point and rounded,
// giving k = 2 and v(1) = 40201.
func TestIntegerDivisionTruncates(t *testing.T) {
	src := `
program t
integer i, k, m
real u(8), v(8)
!hpf$ distribute (block) :: u, v
do i = 1, 8
  u(i) = i
end do
k = 3/2
m = 7
do i = 1, 8
  v(i) = u((i+1)/2) + 100*u(k) + 10000*u(m/2)
end do
end
`
	for name, rep := range runBoth(t, src) {
		if k := rep.Scalars["k"]; k != 1 {
			t.Errorf("%s: k = %v, want 1", name, k)
		}
		for i, got := range rep.Arrays["v"] {
			want := float64((i+2)/2 + 100 + 30000)
			if got != want {
				t.Errorf("%s: v(%d) = %v, want %v", name, i+1, got, want)
			}
		}
	}
}

// TestIntegerDivisionByZero: an integer division by zero is an error naming
// its line on both backends, not +Inf stored into an integer.
func TestIntegerDivisionByZero(t *testing.T) {
	src := `
program t
integer k, m
m = 7
k = m / (m - 7)
end
`
	for name, err := range runErr(t, src) {
		if err == nil || !strings.Contains(err.Error(), "line 5: integer division by zero") {
			t.Errorf("%s: err = %v, want line 5: integer division by zero", name, err)
		}
	}
}

// TestOutOfBoundsReadNamesLine: a read out of bounds reports its line in the
// same form as a write, on both backends.
func TestOutOfBoundsReadNamesLine(t *testing.T) {
	for _, tc := range []struct{ stmt, want string }{
		{"v(i) = u(i-1)", "line 10: u subscript 1 out of bounds: 0 (extent 8)"},
		{"v(i-1) = u(i)", "line 10: v subscript 1 out of bounds: 0 (extent 8)"},
	} {
		src := `
program t
integer i
real u(8), v(8)
!hpf$ distribute (block) :: u, v
do i = 1, 8
  u(i) = i
end do
do i = 1, 8
` + "  " + tc.stmt + `
end do
end
`
		for name, err := range runErr(t, src) {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: err = %v, want %s", name, tc.stmt, err, tc.want)
			}
		}
	}
}
