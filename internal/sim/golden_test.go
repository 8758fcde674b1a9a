package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/report"
)

// simTablesGolden pins the sha256 of each experiment's rendered tables at
// tinyParams. The set covers every experiment whose numbers depend on the
// DRAM timing model or on the ORAM's per-access op lists (intro calls
// dram.Batch directly and xor reads the online op's read list), plus the
// single-instance experiments that depend on eviction order. A host-side
// optimisation of the simulator must leave every simulated cycle and every
// table byte unchanged, so these constants change only when the model
// itself does.
var simTablesGolden = map[string]string{
	"fig2":   "13060c7eae4373477daf0f911469cf80bd9079bb5d551f81e11a145057ec475e",
	"fig3":   "62e30f2403f17437871bbcc4bd08cfeac14dea9c44ae50264c7282515bd74a9c",
	"fig4":   "d104a1f55b94fcc04e9e6714b11284addcec852f42a9c76511dfc26efe916cd4",
	"fig7":   "130f364cbd3aac0bbd7f799e75bdd99a3400d6bb70c81aa11844998fef1b9fbe",
	"fig8":   "41be6fbddd72e24e6b8d20d7170c57287c6f0b940e30d581d7f2165b0168dea1",
	"fig9":   "e98b2711b9d0221e5968a1ffee12eb9438ef3a589ab70da51456e8c4718e5871",
	"fig10":  "dea8b5c33f42da41338bcaa52899f3b6fbba22fbc0583964207754f6073aebf9",
	"fig11":  "de950ac3abfa7612669bb0471ab095c1dee495a93ae1e21d6e7b1c119494fa18",
	"fig12":  "7de98b2b3c8d0bd78a1620f9bf73886fa0a5335917ed3d7e6f2dbb16812680f1",
	"fig13":  "0d3f107afe449d85a226e54e5089fd1730fd49be910b9f85010bd390d6b424ef",
	"fig14":  "21444aa19ebe55c2d1dffe0309c78d3d1032f03f79cad09965af975adbb6280e",
	"fig15":  "b8f734cb9220c5b32ad5210d4aa7447c274de2e5112cba4f9cc8a4b87dd925c8",
	"intro":  "2c7b1a84af2ce064c1a13bf1eaa256e07ccde9e922a9e0e94abf262a8d6cde12",
	"stash":  "4dcd65a185e2993e4f2e22da847c5cd382a58313ce3b165ccac6b787e1e03cf0",
	"sweep":  "9acdeea275ff3ff805df8d9266c53c316079d89cf9f3123a53b9bcfda02ffe40",
	"table2": "582dcaf6afb26e18df94734b082405e34a0c3459cd9e5408fd2bb1a03f24168c",
	"table4": "0d5f9ba626922b65506842c1357be01ff467004c98f586e84cd31ce6147dacde",
	"xor":    "013a2110b5365f3af79fe7292a54795bea2626540b86b3713e43c73a25c0c465",

	// The static tables, pinned because they share the parameter and
	// configuration helpers the simulated experiments use.
	"table1":  "cc2317218a023277067ccc3fd99cfb3598308c4bb2dfcd89e18427af3323afa2",
	"table3":  "d3188e0f6d34f9648f8fe4d955eada378c0dd31aea643275944dabd67e7e8d80",
	"storage": "237f2f4c77612ec6ea52d94cf5fca91bb5e95db76a337ec6c99606fb5493b591",
}

func TestSimTablesGolden(t *testing.T) {
	p := tinyParams()
	p.Exec = NewExec(0) // shared run-cache: the scheme matrix runs once
	for _, id := range ExperimentIDs() {
		want, ok := simTablesGolden[id]
		if !ok {
			continue
		}
		tables, err := Registry()[id](p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := tablesSHA256(tables); got != want {
			t.Errorf("%s: rendered tables sha256 %s, want %s", id, got, want)
		}
	}
}

// tablesSHA256 hashes the rendered text of tables in order.
func tablesSHA256(tables []*report.Table) string {
	h := sha256.New()
	for _, tab := range tables {
		h.Write([]byte(tab.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}
