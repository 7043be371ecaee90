package hepim

import (
	"testing"

	"repro/internal/bfv"
)

func TestServerSubMatchesHost(t *testing.T) {
	f := newFixture(t, 30)
	ct1, _ := f.enc.EncryptValue(9)
	ct2, _ := f.enc.EncryptValue(3)
	neg, err := f.srv.Neg(ct2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.srv.Add(ct1, neg)
	if err != nil {
		t.Fatal(err)
	}
	want := f.eval.Add(ct1, f.eval.Neg(ct2))
	if !got.Equal(want) {
		t.Fatal("PIM Sub differs from host evaluator")
	}
	if v := f.dec.Decrypt(got).Coeffs[0]; v != 6 {
		t.Errorf("9 - 3 = %d", v)
	}
}

func TestServerNegMatchesHost(t *testing.T) {
	f := newFixture(t, 31)
	ct, _ := f.enc.EncryptValue(3)
	got, err := f.srv.Neg(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := f.eval.Neg(ct)
	if !got.Equal(want) {
		t.Fatal("PIM Neg differs from host evaluator")
	}
	if v := f.dec.Decrypt(got).Coeffs[0]; v != f.params.T-3 {
		t.Errorf("-3 mod t = %d", v)
	}
}

func TestServerAddPlainMatchesHost(t *testing.T) {
	f := newFixture(t, 32)
	ct, _ := f.enc.EncryptValue(5)
	pt := bfv.NewPlaintext(f.params)
	pt.Coeffs[0] = 4
	got, err := f.srv.AddPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := f.eval.AddPlain(ct, pt)
	if !got.Equal(want) {
		t.Fatal("PIM AddPlain differs from host evaluator")
	}
	if v := f.dec.Decrypt(got).Coeffs[0]; v != 9 {
		t.Errorf("5 + plain 4 = %d", v)
	}
}
