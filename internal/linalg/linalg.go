// Package linalg provides the small dense linear algebra kernel used by
// the decoder baselines and the neural-network engine: a row-major matrix
// type with multiplication, transpose, inversion (Gauss–Jordan with partial
// pivoting) and least-squares solving. It is deliberately minimal: the
// matrices are small (state dimensions, channel counts, layer widths) and
// the algorithms are the textbook ones. The two dense kernels, MulInto
// and InverseInto, run on every decoder step and refit, so they work on
// row slices; Mul and Inverse, and through them LeastSquares, are thin
// allocating wrappers over them. Their element-wise reference forms live
// in oracle_test.go, and the kernels must match them bit for bit, signed
// zeros included.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows requires a non-empty rectangle")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose.
func (m Matrix) T() Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m·b; it allocates the result and runs MulInto.
func (m Matrix) Mul(b Matrix) Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	MulInto(out, m, b)
	return out
}

// MulVec returns m·v for a vector of length Cols.
func (m Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec length %d != cols %d", len(v), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

// Add returns m + b.
func (m Matrix) Add(b Matrix) Matrix { return m.axpy(b, 1) }

// Sub returns m − b.
func (m Matrix) Sub(b Matrix) Matrix { return m.axpy(b, -1) }

func (m Matrix) axpy(b Matrix, sign float64) Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: shape mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += sign * b.Data[i]
	}
	return out
}

// Scale returns s·m.
func (m Matrix) Scale(s float64) Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ErrSingular is returned when a matrix cannot be inverted.
var ErrSingular = errors.New("linalg: singular matrix")

// Inverse returns m⁻¹ by Gauss–Jordan elimination with partial pivoting;
// it allocates the result and its scratch and runs InverseInto.
func (m Matrix) Inverse() (Matrix, error) {
	inv := NewMatrix(m.Rows, m.Cols)
	if err := InverseInto(inv, NewMatrix(m.Rows, m.Cols), m); err != nil {
		return Matrix{}, err
	}
	return inv, nil
}

func swapRows(m Matrix, a, b int) {
	ra := m.Data[a*m.Cols : (a+1)*m.Cols]
	rb := m.Data[b*m.Cols : (b+1)*m.Cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// LeastSquares solves min‖A·x − B‖² column-wise with ridge regularization
// λ ≥ 0, returning x = (AᵀA + λI)⁻¹AᵀB.
func LeastSquares(a, b Matrix, lambda float64) (Matrix, error) {
	if a.Rows != b.Rows {
		return Matrix{}, fmt.Errorf("linalg: LeastSquares row mismatch %d vs %d", a.Rows, b.Rows)
	}
	if lambda < 0 {
		return Matrix{}, fmt.Errorf("linalg: negative ridge %g", lambda)
	}
	at := a.T()
	gram := at.Mul(a)
	for i := 0; i < gram.Rows; i++ {
		gram.Set(i, i, gram.At(i, i)+lambda)
	}
	inv, err := gram.Inverse()
	if err != nil {
		return Matrix{}, err
	}
	return inv.Mul(at.Mul(b)), nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two equal-shape matrices.
func MaxAbsDiff(a, b Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: shape mismatch")
	}
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}
