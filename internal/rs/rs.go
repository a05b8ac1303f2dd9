// Package rs implements Reed-Solomon erasure coding over GF(2^8), the
// encoding FTI uses for its level-3 checkpoints (paper Sec. IV; FTI [9]
// stores RS-encoded checkpoint data so a group of ranks can survive the
// loss of any m of k+m blocks without touching the parallel file system).
//
// The code is systematic: Encode leaves the k data shards untouched and
// produces m parity shards from a Cauchy-style generator matrix;
// Reconstruct rebuilds any missing shards as long as at least k survive.
package rs

import (
	"errors"
	"fmt"
)

// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).

var (
	expTable [512]byte // exp[i] = g^i, doubled to avoid mod in mul
	logTable [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator 0x03 = x+1 in GF(2^8)
		x = mulSlow(x, 3)
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// mulSlow is carry-less polynomial multiplication mod 0x11b, used only to
// build the tables.
func mulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// gfDiv divides a by b; division by zero panics.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("rs: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte { return gfDiv(1, a) }

// Code is a configured (k data, m parity) erasure code.
type Code struct {
	k, m int
	// gen is the m×k generator for the parity rows (Cauchy matrix:
	// gen[i][j] = 1/(x_i + y_j) with disjoint x, y sets), which guarantees
	// every k×k submatrix of [I; gen] is invertible.
	gen [][]byte
}

// New builds a code with k data shards and m parity shards.
// Constraints: k ≥ 1, m ≥ 1, k+m ≤ 256.
func New(k, m int) (*Code, error) {
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("rs: invalid geometry k=%d m=%d (need k,m ≥ 1, k+m ≤ 256)", k, m)
	}
	gen := make([][]byte, m)
	for i := 0; i < m; i++ {
		gen[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			// x_i = k+i, y_j = j; disjoint because i ≥ 0 → x ≥ k > y.
			gen[i][j] = gfInv(byte(k+i) ^ byte(j))
		}
	}
	return &Code{k: k, m: m, gen: gen}, nil
}

// ErrShardSize reports inconsistent shard lengths.
var ErrShardSize = errors.New("rs: shards must be non-empty and equal-sized")

// ErrTooFewShards reports an unrecoverable erasure pattern.
var ErrTooFewShards = errors.New("rs: fewer than k shards present, cannot reconstruct")

// Encode computes the m parity shards for the given k data shards.
// All data shards must be the same non-zero length.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: got %d data shards, want %d", len(data), c.k)
	}
	size := len(data[0])
	if size == 0 {
		return nil, ErrShardSize
	}
	for _, d := range data {
		if len(d) != size {
			return nil, ErrShardSize
		}
	}
	parity := make([][]byte, c.m)
	for i := 0; i < c.m; i++ {
		parity[i] = make([]byte, size)
		row := c.gen[i]
		for j := 0; j < c.k; j++ {
			coef := row[j]
			if coef == 0 {
				continue
			}
			src := data[j]
			dst := parity[i]
			for b := 0; b < size; b++ {
				if src[b] != 0 {
					dst[b] ^= gfMul(coef, src[b])
				}
			}
		}
	}
	return parity, nil
}

// Reconstruct fills in missing shards in place. shards has length k+m with
// data shards first; missing entries are nil. At least k shards must be
// non-nil. On return every entry is populated.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("rs: got %d shards, want %d", len(shards), c.k+c.m)
	}
	size := 0
	present := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if size == 0 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	if size == 0 {
		return ErrShardSize
	}
	if present < c.k {
		return ErrTooFewShards
	}
	// Fast path: all data shards present → only recompute parity.
	dataMissing := false
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			dataMissing = true
			break
		}
	}
	if !dataMissing {
		parity, err := c.Encode(shards[:c.k])
		if err != nil {
			return err
		}
		for i := 0; i < c.m; i++ {
			if shards[c.k+i] == nil {
				shards[c.k+i] = parity[i]
			}
		}
		return nil
	}

	// General path: pick k surviving rows of the (k+m)×k full matrix
	// [I; gen], invert that submatrix, and multiply by the surviving
	// shards to recover the data shards.
	rows := make([]int, 0, c.k)
	for i := 0; i < c.k+c.m && len(rows) < c.k; i++ {
		if shards[i] != nil {
			rows = append(rows, i)
		}
	}
	sub := make([][]byte, c.k)
	for r, idx := range rows {
		sub[r] = make([]byte, c.k)
		if idx < c.k {
			sub[r][idx] = 1
		} else {
			copy(sub[r], c.gen[idx-c.k])
		}
	}
	inv, err := invertMatrix(sub)
	if err != nil {
		return fmt.Errorf("rs: generator submatrix not invertible: %w", err)
	}
	// data[j] = Σ_r inv[j][r] · shards[rows[r]]
	for j := 0; j < c.k; j++ {
		if shards[j] != nil {
			continue
		}
		out := make([]byte, size)
		for r := 0; r < c.k; r++ {
			coef := inv[j][r]
			if coef == 0 {
				continue
			}
			src := shards[rows[r]]
			for b := 0; b < size; b++ {
				if src[b] != 0 {
					out[b] ^= gfMul(coef, src[b])
				}
			}
		}
		shards[j] = out
	}
	// Recompute any missing parity from the now-complete data.
	parity, err := c.Encode(shards[:c.k])
	if err != nil {
		return err
	}
	for i := 0; i < c.m; i++ {
		if shards[c.k+i] == nil {
			shards[c.k+i] = parity[i]
		}
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data shards.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.k+c.m {
		return false, fmt.Errorf("rs: got %d shards, want %d", len(shards), c.k+c.m)
	}
	for _, s := range shards {
		if s == nil {
			return false, ErrShardSize
		}
	}
	parity, err := c.Encode(shards[:c.k])
	if err != nil {
		return false, err
	}
	for i := 0; i < c.m; i++ {
		got := shards[c.k+i]
		for b := range got {
			if got[b] != parity[i][b] {
				return false, nil
			}
		}
	}
	return true, nil
}

// invertMatrix inverts a square GF(2^8) matrix by Gauss-Jordan elimination.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	a := make([][]byte, n)
	inv := make([][]byte, n)
	for i := range m {
		a[i] = append([]byte(nil), m[i]...)
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("rs: singular matrix")
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		p := a[col][col]
		pInv := gfInv(p)
		for j := 0; j < n; j++ {
			a[col][j] = gfMul(a[col][j], pInv)
			inv[col][j] = gfMul(inv[col][j], pInv)
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < n; j++ {
				a[r][j] ^= gfMul(f, a[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}
