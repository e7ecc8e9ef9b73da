package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"testing"
)

// golden pins every registered experiment at Quick scale: the SHA-256 of
// its table's CSV and its exact headline facts. Any change to the
// simulator or the agent that moves a single decision moves one of these,
// so a pure refactor or speed-up of the decision path must leave them
// untouched.
var golden = map[string]struct {
	csv   string
	facts map[string]float64
}{
	"ablation-diversity": {csv: "ca9c3fc3df40622e8050235698ba7ac4233a8300d49930715ac7aad4b210619a"},
	"ablation-floor":     {csv: "62b23ddde05f2fc63f9f5e183c42b59232e03062fbf8fed4d3152358e2eba5d8"},
	"ablation-placement": {csv: "f6b0c3a10a54f56d294b60325ad1885f804ea8900b7ba42ecb989e6c2ba29a60"},
	"fig2": {
		csv:   "f4055b474f7155d90aadd09292b9864ab4767ea39d808e5d6b37eb0398ba1112",
		facts: map[string]float64{"final_violations": 0, "vnodes_cheap_mean": 12.714285714285714, "vnodes_expensive_mean": 0.5},
	},
	"fig3": {
		csv: "d3ab46ffcdede9f2355c9271b791eba2b51b70b490d232ab79bf11b2f275129b",
		facts: map[string]float64{
			"final_violations": 0, "lost_partitions": 0,
			"ring0_at_upgrade": 41, "ring0_pre_failure": 41, "ring0_post_failure": 41, "ring0_final": 41,
			"ring1_at_upgrade": 60, "ring1_pre_failure": 60, "ring1_post_failure": 60, "ring1_final": 60,
			"ring2_at_upgrade": 80, "ring2_pre_failure": 80, "ring2_post_failure": 80, "ring2_final": 80,
		},
	},
	"fig4": {csv: "f59c3fec01ec521153b9428b81fddc158588568d0583c219114b5b48d6847090"},
	"fig5": {csv: "c56cab89a8c864ea422f8e7b1806badaf654fa8fc2f0b48b71b3bd72134a0a12"},
	"geo": {
		csv: "d990f44c4bd5223c87a39881a264f47b94f0314dba1adf4e9e7f464be3afac08",
		facts: map[string]float64{
			"ap_home_cap": 0.3333333333333333, "ap_home_fraction": 0.4057971014492754,
			"eu_home_cap": 0.5, "eu_home_fraction": 0.4528301886792453, "final_violations": 0,
		},
	},
}

func TestGoldenQuick(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Quick)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Table.CSV()))
			got := hex.EncodeToString(sum[:])
			want, ok := golden[id]
			if !ok {
				t.Fatalf("no golden entry; got csv %s facts %#v", got, res.Facts)
			}
			if got != want.csv {
				t.Errorf("CSV sha256 = %s, want %s", got, want.csv)
			}
			if !maps.Equal(res.Facts, want.facts) {
				t.Errorf("facts = %#v, want %#v", res.Facts, want.facts)
			}
		})
	}
}
