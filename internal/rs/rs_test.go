package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFArithmetic(t *testing.T) {
	// Multiplicative identity and commutativity on a sample.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for %d", a)
		}
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for %d", a)
		}
	}
	for i := 0; i < 1000; i++ {
		a, b := byte(i*7+1), byte(i*13+5)
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("mul not commutative for %d,%d", a, b)
		}
		if gfMul(a, b) != mulSlow(a, b) {
			t.Fatalf("table mul disagrees with slow mul for %d,%d", a, b)
		}
	}
}

func TestGFDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(1, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := New(200, 100); err == nil {
		t.Fatal("k+m>256 accepted")
	}
	c, err := New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.k != 10 || c.m != 4 {
		t.Fatal("geometry accessors wrong")
	}
}

func makeShards(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func TestEncodeVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, _ := New(6, 3)
	data := makeShards(rng, 6, 1024)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, data...), parity...)
	ok, err := c.Verify(all)
	if err != nil || !ok {
		t.Fatalf("verify: ok=%v err=%v", ok, err)
	}
	// Corrupt one byte → verification fails.
	all[2][10] ^= 0xFF
	ok, err = c.Verify(all)
	if err != nil || ok {
		t.Fatalf("verify after corruption: ok=%v err=%v", ok, err)
	}
}

func TestReconstructDataLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, _ := New(5, 3)
	data := makeShards(rng, 5, 512)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, 5)
	for i := range data {
		orig[i] = append([]byte(nil), data[i]...)
	}
	shards := append(append([][]byte{}, data...), parity...)
	// Lose 3 shards: two data, one parity.
	shards[0], shards[3], shards[6] = nil, nil, nil
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("data shard %d not recovered", i)
		}
	}
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("verify after reconstruct: ok=%v err=%v", ok, err)
	}
}

func TestReconstructParityOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, _ := New(4, 2)
	data := makeShards(rng, 4, 256)
	parity, _ := c.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	want5 := append([]byte(nil), shards[5]...)
	shards[4], shards[5] = nil, nil
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[5], want5) {
		t.Fatal("parity shard not recomputed correctly")
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, _ := New(4, 2)
	data := makeShards(rng, 4, 64)
	parity, _ := c.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[1], shards[4] = nil, nil, nil // 3 lost, only 3 < 4 remain
	if err := c.Reconstruct(shards); err != ErrTooFewShards {
		t.Fatalf("want ErrTooFewShards, got %v", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	c, _ := New(3, 2)
	if _, err := c.Encode([][]byte{{1}, {2}}); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	if _, err := c.Encode([][]byte{{1}, {2, 3}, {4}}); err == nil {
		t.Fatal("ragged shards accepted")
	}
	if _, err := c.Encode([][]byte{{}, {}, {}}); err == nil {
		t.Fatal("empty shards accepted")
	}
}

// Property: for random geometry and random erasures of ≤ m shards,
// reconstruction restores the original data exactly.
func TestReconstructProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		size := 1 + rng.Intn(300)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		data := makeShards(rng, k, size)
		orig := make([][]byte, k)
		for i := range data {
			orig[i] = append([]byte(nil), data[i]...)
		}
		parity, err := c.Encode(data)
		if err != nil {
			return false
		}
		shards := append(append([][]byte{}, data...), parity...)
		// Erase up to m random shards.
		erase := rng.Intn(m + 1)
		perm := rng.Perm(k + m)
		for _, idx := range perm[:erase] {
			shards[idx] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		ok, err := c.Verify(shards)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode4x2_1MiB(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	c, _ := New(4, 2)
	data := makeShards(rng, 4, 1<<20)
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}
