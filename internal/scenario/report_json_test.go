package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"borealis/internal/tuple"
)

// TestWorkerReportStableViewJSON pins the JSON a worker ships its stable
// view in: the tuple's exported fields in order and the payload as "Data",
// null when empty — the bytes a boss built before payloads moved inline
// reads — for a boundary and for 1-, 2- and 4-value tuples, and the round
// trip back to the same tuples.
func TestWorkerReportStableViewJSON(t *testing.T) {
	view := []tuple.Tuple{
		tuple.NewBoundary(7),
		tuple.Tuple{Type: tuple.Insertion, Src: 1, ID: 3, STime: 9}.WithData(5),
		tuple.Tuple{Type: tuple.Insertion, ID: 4, STime: 9}.WithData(-1, 2),
		tuple.Tuple{Type: tuple.Tentative, Src: 2, ID: 5, STime: 10}.WithData(1, 2, 3, 1<<40),
	}
	const want = `[{"Type":2,"Src":0,"ID":0,"STime":7,"Data":null},` +
		`{"Type":0,"Src":1,"ID":3,"STime":9,"Data":[5]},` +
		`{"Type":0,"Src":0,"ID":4,"STime":9,"Data":[-1,2]},` +
		`{"Type":1,"Src":2,"ID":5,"STime":10,"Data":[1,2,3,1099511627776]}]`
	b, err := json.Marshal(&WorkerReport{Worker: "w", StableView: view})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	if got := string(fields["stable_view"]); got != want {
		t.Fatalf("stable_view JSON\n got %s\nwant %s", got, want)
	}
	var back WorkerReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.StableView, view) {
		t.Fatalf("round trip gave %v, want %v", back.StableView, view)
	}
}
