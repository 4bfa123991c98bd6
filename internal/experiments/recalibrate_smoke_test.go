package experiments

import "testing"

func TestRecalibratePublishSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement")
	}
	res, err := RecalibratePublish(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatRecalibrate(res))
	if res.NMax <= 0 {
		t.Fatalf("n_max = %d, want positive", res.NMax)
	}
	if res.AuditNMax != res.NMax {
		t.Fatalf("audit n_max %d != model n_max %d", res.AuditNMax, res.NMax)
	}
}
