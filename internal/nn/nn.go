// Package nn implements a small quantised neural-network inference engine
// whose weights live in FPGA BRAM, reproducing the ML-resilience thread of
// paper Sec. III-C (and ref [8]): "due to inherent resilience of ML
// models, aggressive undervolting can lead to significant power saving
// even below the voltage guardband region".
//
// The network is a two-layer MLP trained in float64 on a synthetic
// classification task, then quantised to int8. For the undervolting
// experiment the quantised weights are stored in a modelled FPGA's BRAM
// and read back through the faulty-memory path, so low-voltage bit flips
// corrupt the deployed model exactly as they would on silicon.
package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"legato/internal/fpga"
)

// MLP is a float-trained two-layer perceptron: in → hidden (ReLU) → out.
type MLP struct {
	In, Hidden, Out int
	W1              [][]float64 // [hidden][in]
	B1              []float64
	W2              [][]float64 // [out][hidden]
	B2              []float64
}

// NewMLP allocates a network with small random weights.
func NewMLP(in, hidden, out int, seed int64) *MLP {
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{In: in, Hidden: hidden, Out: out}
	m.W1 = randMat(rng, hidden, in, math.Sqrt(2.0/float64(in)))
	m.B1 = make([]float64, hidden)
	m.W2 = randMat(rng, out, hidden, math.Sqrt(2.0/float64(hidden)))
	m.B2 = make([]float64, out)
	return m
}

func randMat(rng *rand.Rand, rows, cols int, scale float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64() * scale
		}
	}
	return m
}

// Forward returns the output logits and the hidden activations.
func (m *MLP) Forward(x []float64) (logits, hidden []float64) {
	hidden = make([]float64, m.Hidden)
	for h := 0; h < m.Hidden; h++ {
		s := m.B1[h]
		for i := 0; i < m.In; i++ {
			s += m.W1[h][i] * x[i]
		}
		if s > 0 {
			hidden[h] = s
		}
	}
	logits = make([]float64, m.Out)
	for o := 0; o < m.Out; o++ {
		s := m.B2[o]
		for h := 0; h < m.Hidden; h++ {
			s += m.W2[o][h] * hidden[h]
		}
		logits[o] = s
	}
	return logits, hidden
}

// Predict returns the argmax class.
func (m *MLP) Predict(x []float64) int {
	logits, _ := m.Forward(x)
	return argmax(logits)
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// Train runs plain SGD with softmax cross-entropy.
func (m *MLP) Train(X [][]float64, y []int, epochs int, lr float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, k := range idx {
			x, label := X[k], y[k]
			logits, hidden := m.Forward(x)
			probs := softmax(logits)
			// Output-layer gradient.
			dOut := make([]float64, m.Out)
			for o := range dOut {
				dOut[o] = probs[o]
				if o == label {
					dOut[o] -= 1
				}
			}
			// Hidden gradient.
			dHid := make([]float64, m.Hidden)
			for h := 0; h < m.Hidden; h++ {
				if hidden[h] <= 0 {
					continue
				}
				s := 0.0
				for o := 0; o < m.Out; o++ {
					s += dOut[o] * m.W2[o][h]
				}
				dHid[h] = s
			}
			for o := 0; o < m.Out; o++ {
				m.B2[o] -= lr * dOut[o]
				for h := 0; h < m.Hidden; h++ {
					m.W2[o][h] -= lr * dOut[o] * hidden[h]
				}
			}
			for h := 0; h < m.Hidden; h++ {
				if dHid[h] == 0 {
					continue
				}
				m.B1[h] -= lr * dHid[h]
				for i := 0; i < m.In; i++ {
					m.W1[h][i] -= lr * dHid[h] * x[i]
				}
			}
		}
	}
}

func softmax(logits []float64) []float64 {
	max := logits[argmax(logits)]
	out := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// accuracy scores a classifier on a labelled set.
func accuracy(predict func([]float64) int, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	ok := 0
	for i, x := range X {
		if predict(x) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

// Blobs generates the synthetic classification task: `classes` Gaussian
// clusters in `dim` dimensions.
func Blobs(n, dim, classes int, spread float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 3
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % classes
		y[i] = c
		X[i] = make([]float64, dim)
		for d := range X[i] {
			X[i][d] = centers[c][d] + rng.NormFloat64()*spread
		}
	}
	return X, y
}

// Quantised is the int8 deployment format: weights as int8 with per-layer
// scales, biases as float (biases are tiny and typically kept in flops).
type Quantised struct {
	In, Hidden, Out int
	Scale1, Scale2  float64
	W1              []int8 // row-major [hidden][in]
	W2              []int8 // row-major [out][hidden]
	B1, B2          []float64
}

// Quantise converts the float model to int8 with symmetric per-layer
// scaling.
func (m *MLP) Quantise() *Quantised {
	q := &Quantised{In: m.In, Hidden: m.Hidden, Out: m.Out,
		B1: append([]float64(nil), m.B1...), B2: append([]float64(nil), m.B2...)}
	q.Scale1, q.W1 = quantLayer(m.W1)
	q.Scale2, q.W2 = quantLayer(m.W2)
	return q
}

func quantLayer(w [][]float64) (float64, []int8) {
	max := 0.0
	for _, row := range w {
		for _, v := range row {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	if max == 0 {
		max = 1
	}
	scale := max / 127
	out := make([]int8, 0, len(w)*len(w[0]))
	for _, row := range w {
		for _, v := range row {
			qv := math.Round(v / scale)
			if qv > 127 {
				qv = 127
			}
			if qv < -127 {
				qv = -127
			}
			out = append(out, int8(qv))
		}
	}
	return scale, out
}

// Predict runs int8 inference.
func (q *Quantised) Predict(x []float64) int {
	hidden := make([]float64, q.Hidden)
	for h := 0; h < q.Hidden; h++ {
		s := q.B1[h]
		for i := 0; i < q.In; i++ {
			s += float64(q.W1[h*q.In+i]) * q.Scale1 * x[i]
		}
		if s > 0 {
			hidden[h] = s
		}
	}
	logits := make([]float64, q.Out)
	for o := 0; o < q.Out; o++ {
		s := q.B2[o]
		for h := 0; h < q.Hidden; h++ {
			s += float64(q.W2[o*q.Hidden+h]) * q.Scale2 * hidden[h]
		}
		logits[o] = s
	}
	return argmax(logits)
}

// Accuracy scores the quantised network.
func (q *Quantised) Accuracy(X [][]float64, y []int) float64 {
	return accuracy(q.Predict, X, y)
}

// weightBytes returns the serialised int8 weight arrays (the BRAM image).
func (q *Quantised) weightBytes() []byte {
	out := make([]byte, 0, len(q.W1)+len(q.W2)+8)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(q.W1)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(q.W2)))
	out = append(out, hdr[:]...)
	for _, v := range q.W1 {
		out = append(out, byte(v))
	}
	for _, v := range q.W2 {
		out = append(out, byte(v))
	}
	return out
}

// StoreToBRAM writes the weight image into the board at offset 0.
func (q *Quantised) StoreToBRAM(b *fpga.Board) error {
	img := q.weightBytes()
	if len(img) > b.MemBytes() {
		return fmt.Errorf("nn: weight image %d bytes exceeds BRAM %d", len(img), b.MemBytes())
	}
	return b.Write(0, img)
}

// LoadFromBRAM reads the weights back through the (possibly faulty) BRAM
// path, returning a deployed model whose weights include any bit flips
// the current voltage induces.
func LoadFromBRAM(template *Quantised, b *fpga.Board) (*Quantised, error) {
	n1, n2 := len(template.W1), len(template.W2)
	img := make([]byte, 8+n1+n2)
	if err := b.Read(0, img); err != nil {
		return nil, err
	}
	got1 := binary.LittleEndian.Uint32(img[0:])
	got2 := binary.LittleEndian.Uint32(img[4:])
	// Header corruption is tolerated: sizes come from the template (a real
	// accelerator knows its topology from the bitstream, not from BRAM).
	_ = got1
	_ = got2
	out := &Quantised{
		In: template.In, Hidden: template.Hidden, Out: template.Out,
		Scale1: template.Scale1, Scale2: template.Scale2,
		B1: append([]float64(nil), template.B1...),
		B2: append([]float64(nil), template.B2...),
		W1: make([]int8, n1), W2: make([]int8, n2),
	}
	for i := 0; i < n1; i++ {
		out.W1[i] = int8(img[8+i])
	}
	for i := 0; i < n2; i++ {
		out.W2[i] = int8(img[8+n1+i])
	}
	return out, nil
}
