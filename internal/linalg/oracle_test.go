package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The reference kernels: the element-wise At/Set forms MulInto and
// InverseInto replaced. They are the oracles every production result is
// compared against bit for bit.

// mulRef returns m·b.
func mulRef(m, b Matrix) Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// inverseRef returns m⁻¹ by Gauss–Jordan elimination with partial pivoting.
func inverseRef(m Matrix) (Matrix, error) {
	if m.Rows != m.Cols {
		return Matrix{}, fmt.Errorf("linalg: cannot invert %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return Matrix{}, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

// sameBits reports whether two matrices agree in shape and in the bits
// of every element, signed zeros and NaN payloads included.
func sameBits(a, b Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// garbage returns an r×c matrix full of NaN, so a kernel that reads its
// destination or scratch before writing it shows up as a mismatch.
func garbage(r, c int) Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

func randMatrix(rng *rand.Rand, r, c int) Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// sprinkleZeros sets about a third of the entries to exact zeros, half of
// them negative, so the zero skips and signed-zero arithmetic are used.
func sprinkleZeros(rng *rand.Rand, m Matrix) Matrix {
	for i := range m.Data {
		switch rng.Intn(6) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// inverseCases returns the named inputs for size n: invertible classes
// (SPD, dense with exact zeros, pivot-requiring) and singular or
// near-singular ones.
func inverseCases(rng *rand.Rand, n int) map[string]Matrix {
	cases := map[string]Matrix{}

	b := randMatrix(rng, n, n)
	spd := mulRef(b, b.T())
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	cases["spd"] = spd

	dense := sprinkleZeros(rng, randMatrix(rng, n, n))
	for i := 0; i < n; i++ {
		dense.Set(i, i, dense.At(i, i)+2*float64(n))
	}
	cases["dense_zeros"] = dense
	cases["dense_zeros_raw"] = sprinkleZeros(rng, randMatrix(rng, n, n))

	// A diagonally dominant matrix with its rows reversed: every leading
	// entry is small, so each column needs a row swap.
	dd := randMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		dd.Set(i, i, dd.At(i, i)+4*float64(n))
	}
	piv := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(piv.Data[i*n:(i+1)*n], dd.Data[(n-1-i)*n:(n-i)*n])
	}
	cases["pivoting"] = piv

	cases["zero"] = NewMatrix(n, n)
	if n >= 2 {
		dup := randMatrix(rng, n, n)
		copy(dup.Data[(n-1)*n:], dup.Data[:n])
		cases["duplicate_row"] = dup
		near := dup.Clone()
		near.Data[(n-1)*n] += 1e-13
		cases["near_singular"] = near
		// Singular only at the last pivot: the last column is a sum of
		// the others.
		late := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n-1; j++ {
				s += late.At(i, j)
			}
			late.Set(i, n-1, s)
		}
		cases["late_singular"] = late
		cases["tiny_scale"] = spd.Scale(1e-13)
	}
	nonFinite := spd.Clone()
	nonFinite.Data[rng.Intn(n*n)] = math.NaN()
	nonFinite.Data[rng.Intn(n*n)] = math.Inf(1)
	cases["non_finite"] = nonFinite
	return cases
}

// TestInverseMatchesOracle compares InverseInto and Inverse with
// inverseRef bit for bit, and ErrSingular on exactly the same inputs.
func TestInverseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	singular, inverted := 0, 0
	for n := 1; n <= 100; n++ {
		for name, a := range inverseCases(rng, n) {
			in := a.Clone()
			want, werr := inverseRef(a)

			dst, work := garbage(n, n), garbage(n, n)
			gerr := InverseInto(dst, work, a)
			if gerr != werr {
				t.Fatalf("n=%d %s: InverseInto error %v, oracle %v", n, name, gerr, werr)
			}
			got, aerr := a.Inverse()
			if aerr != werr {
				t.Fatalf("n=%d %s: Inverse error %v, oracle %v", n, name, aerr, werr)
			}
			if !sameBits(a, in) {
				t.Fatalf("n=%d %s: input modified", n, name)
			}
			if werr != nil {
				singular++
				continue
			}
			inverted++
			if !sameBits(dst, want) {
				t.Fatalf("n=%d %s: InverseInto differs from the oracle", n, name)
			}
			if !sameBits(got, want) {
				t.Fatalf("n=%d %s: Inverse differs from the oracle", n, name)
			}
		}
	}
	if singular == 0 || inverted == 0 {
		t.Fatalf("%d singular and %d inverted inputs; both outcomes must be covered", singular, inverted)
	}
}

// TestMulMatchesOracle compares MulInto and Mul with mulRef bit for bit
// over shapes from 1 to 100 with exact (signed) zeros in both factors.
func TestMulMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{1, 2, 3, 7, 31, 32, 33, 64, 96, 100}
	for _, r := range sizes {
		for _, k := range sizes {
			c := sizes[rng.Intn(len(sizes))]
			a := sprinkleZeros(rng, randMatrix(rng, r, k))
			b := sprinkleZeros(rng, randMatrix(rng, k, c))
			if r*k > 1 {
				a.Data[rng.Intn(r*k)] = math.NaN()
			}
			want := mulRef(a, b)
			dst := garbage(r, c)
			MulInto(dst, a, b)
			if !sameBits(dst, want) {
				t.Fatalf("%d×%d · %d×%d: MulInto differs from the oracle", r, k, k, c)
			}
			if got := a.Mul(b); !sameBits(got, want) {
				t.Fatalf("%d×%d · %d×%d: Mul differs from the oracle", r, k, k, c)
			}
		}
	}
}

// TestInverseSpeedup is the floor on the production inverse: at n=32, the
// Kalman innovation-covariance size, InverseInto must run at least 3×
// faster than inverseRef (best of five interleaved passes each). The
// floor is not asserted under the race detector.
func TestInverseSpeedup(t *testing.T) {
	const n, reps = 32, 200
	rng := rand.New(rand.NewSource(3))
	a := inverseCases(rng, n)["spd"]
	dst, work := NewMatrix(n, n), NewMatrix(n, n)
	bestFast, bestRef := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := InverseInto(dst, work, a); err != nil {
				t.Fatal(err)
			}
		}
		bestFast = min(bestFast, time.Since(start))
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := inverseRef(a); err != nil {
				t.Fatal(err)
			}
		}
		bestRef = min(bestRef, time.Since(start))
	}
	speedup := float64(bestRef) / float64(bestFast)
	t.Logf("inverse n=%d: production %.1f µs, reference %.1f µs (%.2fx)", n,
		float64(bestFast.Nanoseconds())/reps/1e3, float64(bestRef.Nanoseconds())/reps/1e3, speedup)
	if raceEnabled {
		return
	}
	if speedup < 3 {
		t.Errorf("InverseInto only %.2fx faster than the reference, want >= 3x", speedup)
	}
}

func BenchmarkInverseInto(b *testing.B) {
	for _, n := range []int{2, 32, 96} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := inverseCases(rng, n)["spd"]
		dst, work := NewMatrix(n, n), NewMatrix(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := InverseInto(dst, work, a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%dRef", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inverseRef(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
