// Package hestats implements the paper's three statistical workloads
// (§3, §4.3) — arithmetic mean, variance and linear regression — over BFV
// ciphertexts, against any evaluation engine (the host evaluator or the
// simulated PIM server). The split follows the paper exactly: additions
// and multiplications happen on the engine (server side, encrypted); the
// final scalar divisions happen on the client after decryption.
package hestats

import (
	"errors"
	"fmt"

	"repro/internal/bfv"
)

// Engine is the server-side evaluation capability the workloads need.
// Both *hepim.Server (PIM) and *HostEngine (CPU) satisfy it.
type Engine interface {
	Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error)
	Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
}

// HostEngine adapts bfv.Evaluator to the Engine interface — the custom
// CPU implementation of the paper.
type HostEngine struct {
	Eval *bfv.Evaluator
}

// Add implements Engine.
func (h *HostEngine) Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	return h.Eval.Add(a, b), nil
}

// Sum implements Engine by sequential folding.
func (h *HostEngine) Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("hestats: empty sum")
	}
	acc := cts[0]
	for _, ct := range cts[1:] {
		acc = h.Eval.Add(acc, ct)
	}
	return acc, nil
}

// Mul implements Engine.
func (h *HostEngine) Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	return h.Eval.Mul(a, b)
}

// EncryptedMean is the server-side result of the mean workload: the
// encrypted sum plus the (public) count. The client decrypts and divides
// (§3: "scalar division performed on the host processor").
type EncryptedMean struct {
	Sum   *bfv.Ciphertext
	Count int
}

// Mean aggregates the users' sample ciphertexts into an encrypted sum.
func Mean(e Engine, samples []*bfv.Ciphertext) (*EncryptedMean, error) {
	if len(samples) == 0 {
		return nil, errors.New("hestats: mean of zero samples")
	}
	sum, err := e.Sum(samples)
	if err != nil {
		return nil, err
	}
	return &EncryptedMean{Sum: sum, Count: len(samples)}, nil
}

// Decrypt finishes the mean on the client.
func (m *EncryptedMean) Decrypt(dec *bfv.Decryptor) float64 {
	return float64(dec.DecryptValue(m.Sum)) / float64(m.Count)
}

// EncryptedVariance is the server-side result of the variance workload:
// encrypted Σx and Σx². The client computes E[x²] − E[x]².
type EncryptedVariance struct {
	Sum        *bfv.Ciphertext
	SumSquares *bfv.Ciphertext
	Count      int
}

// Variance squares every sample homomorphically (multiplication of two
// equal numbers, §4.3) and aggregates both moments.
func Variance(e Engine, samples []*bfv.Ciphertext) (*EncryptedVariance, error) {
	if len(samples) == 0 {
		return nil, errors.New("hestats: variance of zero samples")
	}
	squares := make([]*bfv.Ciphertext, len(samples))
	for i, ct := range samples {
		sq, err := e.Mul(ct, ct)
		if err != nil {
			return nil, fmt.Errorf("hestats: squaring sample %d: %w", i, err)
		}
		squares[i] = sq
	}
	sum, err := e.Sum(samples)
	if err != nil {
		return nil, err
	}
	sumSq, err := e.Sum(squares)
	if err != nil {
		return nil, err
	}
	return &EncryptedVariance{Sum: sum, SumSquares: sumSq, Count: len(samples)}, nil
}

// Decrypt finishes the variance on the client: Σx²/n − (Σx/n)².
func (v *EncryptedVariance) Decrypt(dec *bfv.Decryptor) float64 {
	n := float64(v.Count)
	mean := float64(dec.DecryptValue(v.Sum)) / n
	meanSq := float64(dec.DecryptValue(v.SumSquares)) / n
	return meanSq - mean*mean
}

// LinRegModel holds encrypted model weights (one ciphertext per feature).
// The model owner never reveals the weights to the server.
type LinRegModel struct {
	Weights []*bfv.Ciphertext
}

// Predict computes the encrypted prediction ŷ = Σ_j w_j·x_j for each
// sample (a slice of per-feature ciphertexts) — the encrypted
// vector–matrix multiplication of §3, built from homomorphic
// multiplications and additions.
func (m *LinRegModel) Predict(e Engine, samples [][]*bfv.Ciphertext) ([]*bfv.Ciphertext, error) {
	out := make([]*bfv.Ciphertext, len(samples))
	for i, features := range samples {
		if len(features) != len(m.Weights) {
			return nil, fmt.Errorf("hestats: sample %d has %d features, model has %d",
				i, len(features), len(m.Weights))
		}
		terms := make([]*bfv.Ciphertext, len(features))
		for j, x := range features {
			p, err := e.Mul(m.Weights[j], x)
			if err != nil {
				return nil, err
			}
			terms[j] = p
		}
		y, err := e.Sum(terms)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}
