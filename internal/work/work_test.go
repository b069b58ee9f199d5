package work

import (
	"reflect"
	"testing"
)

// TestAddCoversEveryField: Add sums each field into itself and into no
// other, so a counter added to Counts without its line in Add fails here.
func TestAddCoversEveryField(t *testing.T) {
	n := reflect.TypeOf(Counts{}).NumField()
	for i := 0; i < n; i++ {
		var c, o Counts
		reflect.ValueOf(&c).Elem().Field(i).SetUint(2)
		reflect.ValueOf(&o).Elem().Field(i).SetUint(3)
		c.Add(o)
		c.Add(o)
		for j := 0; j < n; j++ {
			want := uint64(0)
			if j == i {
				want = 8
			}
			if got := reflect.ValueOf(c).Field(j).Uint(); got != want {
				t.Errorf("after adding %s: %s = %d, want %d", reflect.TypeOf(c).Field(i).Name, reflect.TypeOf(c).Field(j).Name, got, want)
			}
		}
	}
}

// TestFieldsAreTagged: every counter is a uint64 with its JSON key, its
// metric name and its help text.
func TestFieldsAreTagged(t *testing.T) {
	typ := reflect.TypeOf(Counts{})
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.Type.Kind() != reflect.Uint64 {
			t.Errorf("%s is a %s, want uint64", sf.Name, sf.Type)
		}
		for _, tag := range []string{"json", "metric", "help"} {
			if sf.Tag.Get(tag) == "" {
				t.Errorf("%s has no %s tag", sf.Name, tag)
			}
		}
	}
}
