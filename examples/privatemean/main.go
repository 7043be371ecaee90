// Private mean: the paper's Figure 2(a) scenario end to end, through
// the public facade. Many users encrypt a private reading (e.g. a
// salary or a sensor value); the PIM-equipped server — selected as the
// hebfv "pim" backend — aggregates the ciphertexts without ever
// decrypting; the analyst decrypts only the final sum and divides.
//
//	go run ./examples/privatemean
package main

import (
	"fmt"
	"log"

	"repro/hebfv"
)

func main() {
	// The paper's 54-bit level; the default plaintext modulus t = 65537
	// keeps the aggregate of all readings below t (no wraparound).
	ctx, err := hebfv.New(
		hebfv.WithSecurityLevel(54),
		hebfv.WithBackend("pim"),
		hebfv.WithPIMDPUs(64),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("context:", ctx)

	// 64 users each encrypt one private reading in [0, 1000).
	users := 64
	readings := make([]uint64, users)
	cts := make([]*hebfv.Ciphertext, users)
	var trueSum uint64
	for i := range cts {
		readings[i] = uint64((i*137 + 41) % 1000)
		trueSum += readings[i]
		if cts[i], err = ctx.EncryptValue(readings[i]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d users encrypted their readings (%d KiB of ciphertext total)\n",
		users, users*ctx.CiphertextBytes()/1024)

	// The server: a simulated UPMEM PIM system, selected by backend
	// name. The reduction runs as DPU kernels; the evaluation side
	// never needs a secret key.
	encSum, err := ctx.Sum(cts)
	if err != nil {
		log.Fatal(err)
	}
	launches, seconds, _ := ctx.PIMReport()
	fmt.Printf("PIM backend aggregated %d ciphertexts in %.3f ms of modeled kernel time (%d kernel launches)\n",
		users, seconds*1e3, launches)

	// The analyst decrypts the single result ciphertext.
	sum, err := ctx.DecryptValue(encSum)
	if err != nil {
		log.Fatal(err)
	}
	got := float64(sum) / float64(users)
	want := float64(trueSum) / float64(users)
	fmt.Printf("decrypted mean: %.4f (plaintext recomputation: %.4f)\n", got, want)
	if got != want {
		log.Fatal("mean mismatch — homomorphic aggregation failed")
	}
	fmt.Println("OK: the server computed the mean without seeing any reading")
}
