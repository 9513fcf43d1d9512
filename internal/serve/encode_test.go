package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"

	"corroborate/internal/core"
	"corroborate/internal/jsonw"
	"corroborate/internal/truth"
)

// The oracles below are the reflection-based response builders the
// append writer replaced: build the typed response, then
// json.NewEncoder(...).Encode it. The handlers must write the same bytes.

func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding oracle %T: %v", v, err)
	}
	return buf.Bytes()
}

func factsJSON(facts []core.StreamFact) []FactJSON {
	out := make([]FactJSON, len(facts))
	for i, f := range facts {
		out[i] = FactJSON{Fact: f.Name, Batch: f.Batch, Probability: f.Probability, Prediction: f.Prediction}
	}
	return out
}

func oracleQuery(t *testing.T, tenant string, snap *core.StreamSnapshot, p queryParams) []byte {
	t.Helper()
	total, page := evalQuery(snap, p)
	resp := QueryResponse{Tenant: tenant, Batches: snap.Batches, Total: total}
	if p.top > 0 || p.offset < total {
		resp.Facts = factsJSON(page)
	}
	return encoderBytes(t, resp)
}

func oracleTrust(t *testing.T, tenant string, snap *core.StreamSnapshot) []byte {
	t.Helper()
	names := make([]string, 0, len(snap.Trust))
	for name := range snap.Trust {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := TrustResponse{Tenant: tenant, Batches: snap.Batches, Sources: make([]SourceTrustJSON, len(names))}
	for i, name := range names {
		resp.Sources[i] = SourceTrustJSON{Source: name, Trust: snap.Trust[name]}
	}
	return encoderBytes(t, resp)
}

// encodeQueries are /query parameter sets covering every response shape:
// whole log, pages, an empty in-range page, the "facts":null page past the
// end, top-k, and filters that match some or nothing.
var encodeQueries = []string{
	"", "offset=0&limit=3", "offset=2&limit=100", "limit=0", "offset=9999",
	"top=3", "top=100", "top=2&prediction=false", "prediction=true&offset=1&limit=2",
	"batch=1", "prefix=%3Cf", "fact=nothing-here", "fact=nothing-here&top=4",
}

// hostileBatches are ingest batches whose names need every escape the
// JSON writer knows: HTML-sensitive bytes, quotes, control bytes, DEL,
// U+2028/U+2029 and multi-byte text.
var hostileBatches = [][]core.BatchVote{
	{
		{Fact: "<f>&\"q\"", Source: "s<1>", Vote: truth.Affirm},
		{Fact: "<f>&\"q\"", Source: "s\\2", Vote: truth.Affirm},
		{Fact: "ctl\x01\x1f\x7f\t\n", Source: "s\\2", Vote: truth.Deny},
		{Fact: "ctl\x01\x1f\x7f\t\n", Source: "s\xe2\x80\xa83", Vote: truth.Affirm},
	},
	{
		{Fact: "<f2>", Source: "s<1>", Vote: truth.Affirm},
		{Fact: "para\xe2\x80\xa9\xe6\x97\xa5", Source: "s\xe2\x80\xa83", Vote: truth.Affirm},
		{Fact: "para\xe2\x80\xa9\xe6\x97\xa5", Source: "s<1>", Vote: truth.Deny},
	},
	{
		{Fact: "plain", Source: "s\\2", Vote: truth.Affirm},
	},
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestResponsesMatchEncodingJSON: ingest acks, /query pages and /trust are
// byte-identical to json.NewEncoder output for the same typed responses.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{Name: "alpha"}}})
	defer func() {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	batches := append(append([][]core.BatchVote{}, hostileBatches...), scenarioBatches(t, 3, 6, 5)...)
	for i, votes := range batches {
		resp, err := postIngest(ts, "alpha", ingestBody(t, votes))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d, %v", i, resp.StatusCode, err)
		}
		var acked []core.StreamFact
		for _, f := range srv.World("alpha").Snapshot().Facts {
			if f.Batch == i {
				acked = append(acked, f)
			}
		}
		want := encoderBytes(t, IngestResponse{Tenant: "alpha", Batch: i, Facts: factsJSON(acked)})
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d ack differs from encoding/json:\n got %s\nwant %s", i, got, want)
		}
	}
	snap := srv.World("alpha").Snapshot()
	for _, raw := range encodeQueries {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parseQueryParams(q)
		if err != nil {
			t.Fatal(err)
		}
		got := getBody(t, ts.URL+"/v1/tenants/alpha/query?"+raw)
		if want := oracleQuery(t, "alpha", snap, p); !bytes.Equal(got, want) {
			t.Errorf("query %q differs from encoding/json:\n got %s\nwant %s", raw, got, want)
		}
	}
	if got, want := getBody(t, ts.URL+"/v1/tenants/alpha/trust"), oracleTrust(t, "alpha", snap); !bytes.Equal(got, want) {
		t.Errorf("/trust differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	// The past-the-end page is the one response with "facts":null.
	if got := getBody(t, ts.URL+"/v1/tenants/alpha/query?offset=9999"); !bytes.Contains(got, []byte(`"facts":null`)) {
		t.Errorf("past-the-end page lacks \"facts\":null: %s", got)
	}
}

// TestResponseWritersEdgeValues drives the writers directly with values
// HTTP ingest cannot produce: invalid UTF-8 and a hostile tenant name,
// 'e'-form and extreme floats, and an empty trust table.
func TestResponseWritersEdgeValues(t *testing.T) {
	tenant := "t<&>\xff"
	facts := []core.StreamFact{
		{Name: "bad\xff\xfe", Batch: 0, Probability: 5e-324, Prediction: truth.False},
		{Name: "", Batch: 1, Probability: 1e-7, Prediction: truth.False},
		{Name: "\xe2\x80\xa8", Batch: 2, Probability: 1, Prediction: truth.True},
		{Name: "u", Batch: 3, Probability: 0, Prediction: truth.Unknown},
	}
	snap := &core.StreamSnapshot{
		Batches: 4,
		Facts:   facts,
		Trust:   map[string]float64{"a\xff": 1e-9, "<b>": 0.9, "c": 0},
	}
	check := func(label string, write func(*jsonw.Writer), want []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		jw := getWriter()
		write(jw)
		writeDoc(rec, http.StatusOK, jw)
		putWriter(jw)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s differs from encoding/json:\n got %s\nwant %s", label, got, want)
		}
	}
	check("ack", func(jw *jsonw.Writer) { appendIngest(jw, tenant, IngestResult{Batch: 3, Facts: facts}) },
		encoderBytes(t, IngestResponse{Tenant: tenant, Batch: 3, Facts: factsJSON(facts)}))
	check("empty ack", func(jw *jsonw.Writer) { appendIngest(jw, tenant, IngestResult{}) },
		encoderBytes(t, IngestResponse{Tenant: tenant, Facts: []FactJSON{}}))
	for _, raw := range encodeQueries {
		q, _ := url.ParseQuery(raw)
		p, err := parseQueryParams(q)
		if err != nil {
			t.Fatal(err)
		}
		check("query "+raw, func(jw *jsonw.Writer) {
			total, page := evalQuery(snap, p)
			appendQuery(jw, tenant, snap.Batches, total, page, p.top == 0 && p.offset >= total)
		}, oracleQuery(t, tenant, snap, p))
	}
	check("trust", func(jw *jsonw.Writer) { appendTrust(jw, tenant, snap) }, oracleTrust(t, tenant, snap))
	empty := &core.StreamSnapshot{Trust: map[string]float64{}}
	check("empty trust", func(jw *jsonw.Writer) { appendTrust(jw, tenant, empty) }, oracleTrust(t, tenant, empty))
}

// TestResponseUnencodableValue keeps the old failure mode: a value
// encoding/json refuses (NaN) yields the status with an empty body, as a
// failed json.Encoder.Encode after WriteHeader did.
func TestResponseUnencodableValue(t *testing.T) {
	bad := []core.StreamFact{{Name: "x", Probability: math.NaN(), Prediction: truth.True}}
	old := httptest.NewRecorder()
	writeJSON(old, http.StatusOK, IngestResponse{Tenant: "t", Facts: factsJSON(bad)})
	rec := httptest.NewRecorder()
	jw := getWriter()
	defer putWriter(jw)
	appendIngest(jw, "t", IngestResult{Facts: bad})
	writeDoc(rec, http.StatusOK, jw)
	if rec.Code != old.Code || !bytes.Equal(rec.Body.Bytes(), old.Body.Bytes()) || rec.Body.Len() != 0 {
		t.Fatalf("unencodable ack: status %d body %q; encoding/json path gave %d %q",
			rec.Code, rec.Body.Bytes(), old.Code, old.Body.Bytes())
	}
}
