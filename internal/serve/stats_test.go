package serve

import (
	"reflect"
	"testing"
)

// TestDispatcherStatsAddCoversEveryField sets every field of two stats
// values to distinct numbers through reflection and checks Add sums each
// one, so a counter added to DispatcherStats later cannot be left out of
// the aggregates without this test failing.
func TestDispatcherStatsAddCoversEveryField(t *testing.T) {
	var a, b DispatcherStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s: Add and this test only know int64 counters",
				va.Type().Field(i).Name, va.Field(i).Kind())
		}
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}
