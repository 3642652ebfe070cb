package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/slicing"
)

// FuzzPredictBody drives POST /predict with arbitrary bodies against a tiny
// MLP server. Whatever the bytes, the handler must not panic and must answer
// 200 (a served query), 400 (malformed JSON or a wrong input length), 413
// (a body past PredictBodyLimit) or 503 (shed). The seed corpus lives in
// testdata/fuzz/FuzzPredictBody.
func FuzzPredictBody(f *testing.F) {
	s, err := New(Config{
		Model:      models.NewMLP(4, []int{8, 8}, 3, 4, rand.New(rand.NewSource(7))),
		Rates:      slicing.NewRateList(0.25, 4),
		InputShape: []int{4},
		SLO:        50 * time.Millisecond,
		SampleTime: func(r float64) float64 { return 1e-4 * r * r },
		Tier:       "exact",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Stop)
	h := s.Handler()
	f.Add([]byte(`{"input":[1,-0.5,2,0.3]}`))
	f.Add([]byte(`{"input":[1,2]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body.Bytes())
		}
	})
}
