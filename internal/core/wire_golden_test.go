package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"compact/internal/bench"
	"compact/internal/labeling"
)

// TestDesignWireGolden pins the design wire bytes (format v1) of the
// serve-mixed benchmark circuits and c499, synthesized with heuristic
// labeling at gamma 0.5: compactd response bodies and the disk-tier
// entries already stored must stay byte-identical across changes to the
// in-memory design representation.
func TestDesignWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sha256 string
		size   int
	}{
		{"ctrl", "6b96963d2e55f5b613de8dfc9c07ae984372eea92f7dda030e18deea6ff4f4d6", 3931},
		{"cavlc", "5613fa9a5aca981a1f7dfb4c7a12bb47874500b97c0528804bdbfe0dd3de457f", 6360},
		{"int2float", "af4fafc7f3bfbf27957730e367a7acab18ba3aa619d6d38f31a00c74ab077093", 19742},
		{"priority", "e5362412ed067137e87534524b7bafba781b24f298c5d993934948e414b2cf9a", 68650},
		{"router", "f32c4476e110de4b1b1988d25e54310d817e220739a3759ac1e6bdda3d2f4ff7", 54088},
		{"c880", "24d1c318cf154bff6864c54bc3a277c487e664675c07a2cfb3db3c59616c705c", 28273},
		{"dec", "297d8ca79833f9991b947f21d18c39144d3464821d253b2640c5fb942787bb26", 21927},
		{"i2c", "0de210d10d51522436562b91718affca71142c89be3e5e66122a3a4e55514c00", 39521},
		{"c499", "fc8497b1c5fffe0a3dae23e47edb091fafb6151f2c8c27593903acf21affdb3e", 926286},
	} {
		res, err := Synthesize(bench.MustBuild(tc.name), Options{Method: labeling.MethodHeuristic, Gamma: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := json.Marshal(res.Design)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 || len(data) != tc.size {
			t.Errorf("%s: wire bytes changed: sha256 %s (%d bytes), want %s (%d bytes)",
				tc.name, got, len(data), tc.sha256, tc.size)
		}
	}
}
