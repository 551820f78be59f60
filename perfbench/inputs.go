package main

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/workload"
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seededApp returns app with its program seed mixed with the benchmark
// seed: the same shape (footprint, branch mix, category) with a different
// generated program and execution for every benchmark seed.
func seededApp(app workload.Config, seed uint64) workload.Config {
	app.Seed = mix(app.Seed ^ mix(seed))
	return app
}

// seededCatalog is the whole application catalog under the benchmark seed.
func seededCatalog(seed uint64) []workload.Config {
	apps := workload.Catalog()
	for i := range apps {
		apps[i] = seededApp(apps[i], seed)
	}
	return apps
}

// catalogApp finds a catalog application by name under the benchmark seed.
func catalogApp(name string, seed uint64) (workload.Config, error) {
	app, ok := workload.CatalogByName(name)
	if !ok {
		return app, fmt.Errorf("no catalog application %q", name)
	}
	return seededApp(app, seed), nil
}

// tenantRecords generates one serve tenant's trace the way the chaos
// harness does: a small default program seeded per tenant.
func tenantRecords(seed uint64, tenant, n int) ([]isa.Branch, error) {
	cfg := workload.Default()
	cfg.Seed = mix(seed) ^ uint64(tenant)*0x9e3779b97f4a7c15
	cfg.StaticBranches = 300
	_, tr, err := workload.Build(cfg, uint64(n)*12+20_000)
	if err != nil {
		return nil, err
	}
	if len(tr.Records) < n {
		return nil, fmt.Errorf("tenant %d: workload built %d records, need %d", tenant, len(tr.Records), n)
	}
	return tr.Records[:n], nil
}

// instructions sums the block lengths of recs.
func instructions(recs []isa.Branch) uint64 {
	var n uint64
	for _, b := range recs {
		n += uint64(b.BlockLen)
	}
	return n
}
