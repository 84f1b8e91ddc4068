// Coarse-grained scaling: §5.1 notes that "instances of this
// architecture can be aggregated for implementing coarse-grain
// parallelism". This example aggregates 1–16 pipeline instances over the
// partitions of one large matrix and reports speedup and load-balance
// efficiency per format — showing that the format choice survives
// aggregation (per-lane work scales uniformly), while load imbalance
// grows for formats whose per-tile cost varies most.
package main

import (
	"fmt"
	"log"

	"copernicus"
)

func main() {
	m := copernicus.Random(1024, 0.02, 77)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	fmt.Printf("matrix: %dx%d, nnz=%d; partition 16x16\n\n", m.Rows, m.Cols, m.NNZ())

	// One plan partitions the matrix once; each format is encoded and
	// verified once on it, then re-costed for every lane count.
	pl, err := copernicus.NewStreamPlan(m, 16)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range []copernicus.Format{copernicus.COO, copernicus.CSR, copernicus.DIA} {
		base, err := pl.RunParallel(f, x, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v over %d non-zero tiles:\n", f, base.NonZeroTiles)
		fmt.Println("  lanes  cycles      speedup  efficiency")
		for lanes := 1; lanes <= 16; lanes *= 2 {
			r, err := pl.RunParallel(f, x, lanes)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-5d  %-10d  %6.2fx  %9.3f\n", lanes, r.TotalCycles,
				float64(base.TotalCycles)/float64(r.TotalCycles), r.Efficiency())
		}
		fmt.Println()
	}

	// Functional check: 16-lane output equals the software reference.
	r, err := pl.RunParallel(copernicus.COO, x, 16)
	if err != nil {
		log.Fatal(err)
	}
	ref := m.MulVec(x)
	worst := 0.0
	for i := range ref {
		if d := abs(r.Y[i] - ref[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("functional check across 16 lanes: max |err| = %.2g\n", worst)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
