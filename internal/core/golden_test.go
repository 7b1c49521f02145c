package core_test

// Golden pin across versions: SHA-256 digests of sim.Run schedules under the
// three Section 3 policies, computed once and committed. The determinism
// tests elsewhere run the current code twice and compare it with itself, so
// they cannot see a rewrite of the tracker that changes a decision; these
// digests can. A change that moves one of them changes the paper's schedule
// and must say so. The stream-level twin is internal/stream's golden test.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/sim"
	"rrsched/internal/workload"
)

// goldenSchedules maps "policy/nN" to the digest of the run's serialized
// schedule followed by its cost, job counts and (for super-epochs) the
// Section 3.4 statistics.
var goldenSchedules = map[string]string{
	"dlru/n8":                  "0058f547071c72992070869bc3f9de69cc370da57a20988e6255fa023a9de5f3",
	"dlru/n64":                 "8013977cc1e9b1fa167bc860f394f612aabc054ba8032aa91e7dd187493b1cd8",
	"dlru/n512":                "30b5db609f8c20283083f81216e2ca29efd3f07b4676ed18676584b954ef27ab",
	"edf/n8":                   "f3b2846cb0525400c5774db410615e326f35739a448a5e5872c6d3d2298e75ab",
	"edf/n64":                  "ba547b09df361dd3679fe26305cb16b0c6c2c029e0c1ef08060e77cc8dcd7f50",
	"edf/n512":                 "12f576594c5090dbffe3ce72844be19ee9c19987840384aeb7deecd9c7ff3356",
	"dlru-edf/n8":              "a92925d5c210418a792e9105dd86e7831d3830a9b9968fa174ddba5fac0b67c0",
	"dlru-edf/n64":             "26ecaa47d828a138ecd94d558dbc608d40f44bd9a0eb0caa71b613f1069b8847",
	"dlru-edf/n512":            "d9cda4981aa8ad6f0273fdf89155b15e1078f815557c3ea32758aebba21e871b",
	"dlru-edf-k2/n8":           "11b4e15974d6e16e4fd3c580f8f0642720a3ea6900047461d821f21ebafe99ba",
	"dlru-edf-k2/n64":          "1f82fcb92a72b36fb00f77ff0e8ef89effd9f662b1555f305b38f92747b91f9d",
	"dlru-edf-k2/n512":         "e0f9e03b1000e54e30980b573167d9b672984294ba20645eb07131a895c04ba7",
	"dlru-edf-lru1/n8":         "52a9d032b48e6fed605f6216a53bcb1cb8635a32479f74a7e726710a8298a995",
	"dlru-edf-lru1/n64":        "0f905b2be709d941a116567a3393187a76f6a4ace935e512cd90476a0ed6334c",
	"dlru-edf-lru1/n512":       "11779517f3dfea15c69a8a50e311e45aa29e70f386a5fd132c3c890a2b10a9e5",
	"dlru-edf-superepoch/n8":   "1ba186373610c0b52837ca5c32d801cd979a719fcde8a44dd0f8d318754f2dd3",
	"dlru-edf-superepoch/n64":  "8c125e0d80fc4afa28025491510d43cd872e68370a64e88e44311f6b894f40b4",
	"dlru-edf-superepoch/n512": "199eacc09eab98a3f06b7f3b9b99cf805aa0bda5402983d5a0a5f50eeea4beaa",
}

// goldenWorkload is the seeded short/long-delay mix of the rrbench policy
// rows: colors and delay exponents per resource count.
func goldenWorkload(t *testing.T, n int) *model.Sequence {
	t.Helper()
	shapes := map[int]struct {
		colors         int
		minExp, maxExp uint
	}{8: {6, 1, 4}, 64: {48, 1, 6}, 512: {256, 1, 6}}
	sh := shapes[n]
	seq, err := workload.RandomBatched(workload.RandomConfig{
		Seed: 1, Delta: 16, Colors: sh.colors, Rounds: 256,
		MinDelayExp: sh.minExp, MaxDelayExp: sh.maxExp, Load: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestGoldenScheduleDigests(t *testing.T) {
	policies := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"dlru", func() sim.Policy { return core.NewDeltaLRU() }},
		{"edf", func() sim.Policy { return core.NewEDF() }},
		{"dlru-edf", func() sim.Policy { return core.NewDeltaLRUEDF() }},
		{"dlru-edf-k2", func() sim.Policy { return core.NewDeltaLRUEDF(core.WithTimestampK(2)) }},
		{"dlru-edf-lru1", func() sim.Policy { return core.NewDeltaLRUEDF(core.WithLRUSlots(1)) }},
		{"dlru-edf-superepoch", func() sim.Policy { return core.NewDeltaLRUEDF(core.WithSuperEpochs()) }},
	}
	for _, n := range []int{8, 64, 512} {
		seq := goldenWorkload(t, n)
		for _, pc := range policies {
			key := fmt.Sprintf("%s/n%d", pc.name, n)
			p := pc.mk()
			res, err := sim.Run(sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1}, p)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var buf bytes.Buffer
			if err := model.WriteSchedule(&buf, res.Schedule); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "cost=%d/%d executed=%d dropped=%d\n", res.Cost.Reconfig, res.Cost.Drop, res.Executed, res.Dropped)
			if dp, ok := p.(*core.DeltaLRUEDF); ok {
				tr := dp.Tracker()
				fmt.Fprintf(&buf, "epochs=%d drops=%d/%d super=%+v\n",
					tr.NumEpochs(), tr.EligibleDrops(), tr.IneligibleDrops(), tr.SuperEpochs())
			}
			sum := sha256.Sum256(buf.Bytes())
			if got, want := hex.EncodeToString(sum[:]), goldenSchedules[key]; got != want {
				t.Errorf("%s: schedule digest %s, pinned %s", key, got, want)
			}
		}
	}
}
