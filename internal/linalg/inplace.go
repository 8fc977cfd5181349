package linalg

import (
	"fmt"
	"math"
)

// In-place variants of the matrix operations. The allocating methods on
// Matrix stay the ergonomic default for fitting code (Mul and Inverse
// run MulInto and InverseInto on fresh matrices); these exist for the
// per-step hot paths (the Kalman and Wiener decoders in internal/decode)
// where every tick would otherwise allocate a handful of intermediates.
// All destinations must be pre-shaped by the caller and — unless noted —
// must not alias the sources.

// shapeCheck panics with a descriptive message on a shape mismatch; the
// in-place API keeps the package's panic-on-misuse convention (shapes are
// static properties of the calling decoder, not data-dependent).
func shapeCheck(cond bool, format string, args ...any) {
	if !cond {
		panic("linalg: " + fmt.Sprintf(format, args...))
	}
}

// MulInto computes a·b into dst. dst must be a.Rows×b.Cols and must not
// alias a or b. It is the package's one matrix product: Mul wraps it.
// The loop order is i-k-j on row slices, and a zero a[i][k] skips its
// row update.
func MulInto(dst, a, b Matrix) {
	shapeCheck(a.Cols == b.Rows, "MulInto inner dimension %d != %d", a.Cols, b.Rows)
	shapeCheck(dst.Rows == a.Rows && dst.Cols == b.Cols,
		"MulInto destination %d×%d != %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols)
	clear(dst.Data)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		aRow := a.Data[i*a.Cols : (i+1)*a.Cols]
		dstRow := dst.Data[i*n : (i+1)*n]
		for k, v := range aRow {
			if v == 0 {
				continue
			}
			bRow := b.Data[k*n : (k+1)*n]
			for j := range dstRow {
				dstRow[j] += v * bRow[j]
			}
		}
	}
}

// AddInto computes a + b into dst. dst may alias a or b.
func AddInto(dst, a, b Matrix) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols && dst.Rows == a.Rows && dst.Cols == a.Cols,
		"AddInto shape mismatch")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes a − b into dst. dst may alias a or b.
func SubInto(dst, a, b Matrix) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols && dst.Rows == a.Rows && dst.Cols == a.Cols,
		"SubInto shape mismatch")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// TInto writes aᵀ into dst. dst must be a.Cols×a.Rows and not alias a.
func TInto(dst, a Matrix) {
	shapeCheck(dst.Rows == a.Cols && dst.Cols == a.Rows,
		"TInto destination %d×%d != %d×%d", dst.Rows, dst.Cols, a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
}

// CopyInto copies a into dst of the same shape.
func CopyInto(dst, a Matrix) {
	shapeCheck(dst.Rows == a.Rows && dst.Cols == a.Cols, "CopyInto shape mismatch")
	copy(dst.Data, a.Data)
}

// IdentityInto overwrites the square dst with the identity.
func IdentityInto(dst Matrix) {
	shapeCheck(dst.Rows == dst.Cols, "IdentityInto needs a square matrix, got %d×%d", dst.Rows, dst.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < dst.Rows; i++ {
		dst.Set(i, i, 1)
	}
}

// InverseInto inverts a into dst by Gauss–Jordan elimination with
// partial pivoting, using work as elimination scratch; a is preserved.
// dst and work must be square matrices of a's shape and must not alias a
// or each other. On return work holds no meaningful values. It is the
// package's one inverse: Inverse wraps it.
//
// Each pivot row and target row is taken as a slice once per step. In
// work only the columns right of the pivot are updated: the pivot column
// becomes a unit vector and the columns left of it were eliminated
// earlier, and neither is read again. Every operation on dst keeps the
// order of the textbook element-wise form, so the result is the same to
// the bit (oracle_test.go holds that form).
func InverseInto(dst, work, a Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: cannot invert %d×%d matrix", a.Rows, a.Cols)
	}
	shapeCheck(dst.Rows == a.Rows && dst.Cols == a.Cols, "InverseInto destination shape mismatch")
	shapeCheck(work.Rows == a.Rows && work.Cols == a.Cols, "InverseInto scratch shape mismatch")
	n := a.Rows
	CopyInto(work, a)
	IdentityInto(dst)
	w, d := work.Data, dst.Data
	for col := 0; col < n; col++ {
		pivot, best := col, math.Abs(w[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w[r*n+col]); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(dst, pivot, col)
		}
		wPiv := w[col*n+col+1 : (col+1)*n]
		dPiv := d[col*n : (col+1)*n]
		p := w[col*n+col]
		for j := range wPiv {
			wPiv[j] /= p
		}
		for j := range dPiv {
			dPiv[j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := w[r*n+col]
			if f == 0 {
				continue
			}
			wRow := w[r*n+col+1 : (r+1)*n]
			wRow = wRow[:len(wPiv)]
			for j, v := range wPiv {
				wRow[j] -= f * v
			}
			dRow := d[r*n : (r+1)*n]
			dRow = dRow[:len(dPiv)]
			for j, v := range dPiv {
				dRow[j] -= f * v
			}
		}
	}
	return nil
}

// MulVecInto computes m·v into dst of length m.Rows. dst must not alias v.
func MulVecInto(dst []float64, m Matrix, v []float64) {
	shapeCheck(len(v) == m.Cols, "MulVecInto length %d != cols %d", len(v), m.Cols)
	shapeCheck(len(dst) == m.Rows, "MulVecInto destination length %d != rows %d", len(dst), m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			s += row[j] * x
		}
		dst[i] = s
	}
}
