package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"redcane/internal/datasets"
	"redcane/internal/tensor"
	"redcane/internal/train"
)

// TestTrainedWeightsPinned pins the bits of briefly trained networks: the
// weight caches, and every accuracy reported from them, move exactly when
// these digests do. Each digest is SHA-256 over the network's parameters
// in sorted-name order: the name bytes, then each value's little-endian
// float64 bits. amd64 only: other architectures may fuse multiply-adds
// and so round differently.
func TestTrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64")
	}
	for _, c := range []struct {
		name    string
		spec    Spec
		ds      *datasets.Dataset
		decoder bool
		want    string
	}{
		{"capsnet", CapsNet([]int{1, 20, 20}, 10), datasets.MNISTLike(96, 32, 42), false,
			"7b9d06e1de85ece4fa78314dc1ee8e7de843c9789793991fff9b10587808e17b"},
		{"capsnet+decoder", CapsNet([]int{1, 20, 20}, 10), datasets.MNISTLike(96, 32, 42), true,
			"aa463dd5827ef932e5ddd962d6295d43faf3a3d9d54c3d0d8ec9da2309193696"},
		{"deepcaps", DeepCaps([]int{3, 16, 16}, 10), datasets.CIFARLike(64, 16, 43), false,
			"73ca38da200a65063e05a01288a1ea03bbc5d02b38a631c42073ac2725fdb840"},
	} {
		net, err := BuildInference(c.spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		m := train.NewModel(net)
		sz := c.ds.Channels * c.ds.H * c.ds.W
		train.LSUVInit(m, tensor.NewFrom(c.ds.TrainX.Data[:16*sz], 16, c.ds.Channels, c.ds.H, c.ds.W), 0.5)
		cfg := train.Config{Epochs: 1, BatchSize: 16, LR: 1.5e-3, Seed: 1, GradClip: 5}
		if c.decoder {
			cfg.Decoder = train.NewDecoder(10, 16, 32, 32, 400, 9)
		}
		train.Fit(m, c.ds, cfg)
		if got := weightDigest(net.Params()); got != c.want {
			t.Errorf("%s: trained weights digest %s, want %s", c.name, got, c.want)
		}
	}
}

// weightDigest hashes a parameter map in sorted-name order.
func weightDigest(ps map[string]*tensor.Tensor) string {
	names := make([]string, 0, len(ps))
	for name := range ps {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range ps[name].Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
