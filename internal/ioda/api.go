package ioda

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"countrymon/internal/netmodel"
	"countrymon/internal/query"
	"countrymon/internal/serve"
	"countrymon/internal/signals"
)

// HTTP API in the shape of the real platform's v2 endpoints (the paper
// pulls its comparison data from the IODA API [25]):
//
//	GET /v2/outages/events?entityType=asn&entityCode=25482
//	GET /v2/outages/events?entityType=region&entityCode=Kherson
//	GET /v2/signals/raw?entityType=asn&entityCode=25482
//
// Responses follow the envelope {"type": ..., "data": [...]}; an error is
// {"error": msg} under its status code, as from every serve resource.

// Event is one outage event as served by the API.
type Event struct {
	EntityType string `json:"entity_type"`
	EntityCode string `json:"entity_code"`
	Datasource string `json:"datasource"` // "bgp" or "active-probing"
	Start      int64  `json:"start"`      // unix seconds
	Duration   int64  `json:"duration"`   // seconds
	Ongoing    bool   `json:"ongoing"`
}

// SignalPoint is one raw signal sample.
type SignalPoint struct {
	Time int64   `json:"time"`
	BGP  float64 `json:"bgp"`
	TRIN float64 `json:"active_probing"`
}

// Server exposes a Platform over HTTP. It is a serve.Server over a fully
// sealed serve.Store (the campaign is finished history from the platform's
// point of view) with the two v2 endpoints mounted as cached resources: it
// does not derive series per request. Entities are materialized once, on
// first touch, detection is memoized there per entity, and rendered
// response bytes are cached per query — every repeat request is a map
// lookup plus a write.
type Server struct {
	*serve.Server
	p *Platform
}

// NewServer builds the API server.
func NewServer(p *Platform) *Server {
	tls := serve.NewStore(p.store.Timeline())
	// A timeline always has at least one round, so sealing cannot fail.
	_ = tls.AdvanceTo(p.store.Timeline().NumRounds())
	s := &Server{Server: serve.NewServer(tls), p: p}
	s.Handle("/v2/outages/events", "outages_events", s.renderEvents)
	s.Handle("/v2/signals/raw", "signals_raw", s.renderSignals)
	return s
}

// asEntity returns (registering on first touch) the timeline-store entity
// for an AS. Registration builds the platform series once; from then on the
// store's sealed columns are the only copy anyone reads.
func (s *Server) asEntity(asn netmodel.ASN) *serve.Entity {
	code := strconv.FormatUint(uint64(asn), 10)
	if e := s.Store().Entity(serve.EntityKey("asn", code)); e != nil {
		return e
	}
	src := serve.SeriesSource(s.p.ASSeries(asn))
	e, _ := s.Store().Register("asn", code, src, serve.DetectWith(Config()))
	return e
}

// regionEntity is asEntity for regions, with the platform's fixed-baseline
// detector instead of the sliding-window one.
func (s *Server) regionEntity(region netmodel.Region) *serve.Entity {
	code := region.String()
	if e := s.Store().Entity(serve.EntityKey("region", code)); e != nil {
		return e
	}
	src := serve.SeriesSource(s.p.RegionSeries(region))
	e, _ := s.Store().Register("region", code, src, regionDetector)
	return e
}

// regionDetector is detectRegionSeries as a serve.Detector. It hands back no
// state, so the store's memo runs it over the whole sealed view each time;
// NewServer seals every round before an entity registers, so that is once.
func regionDetector(es *signals.EntitySeries, _ *signals.Detection, _ *signals.State, _ int) (*signals.Detection, *signals.State) {
	return detectRegionSeries(es), nil
}

// renderEnvelope appends a 200 body, {"type": typ, "data": data} and a
// newline, to dst. Every round is sealed, so a body is a function of the
// query alone: both resources are immutable.
func renderEnvelope(dst []byte, typ string, data interface{}) ([]byte, bool, int, string) {
	raw, _ := json.Marshal(data)
	b := append(dst, `{"type":`...)
	b = strconv.AppendQuote(b, typ)
	b = append(b, `,"data":`...)
	b = append(b, raw...)
	return append(b, "}\n"...), true, 0, ""
}

// entity resolves the entityType/entityCode query params. As lenient as
// r.URL.Query(): a malformed pair is dropped, the rest of the query still
// answers.
func entity(rawQuery string) (isAS bool, asn netmodel.ASN, region netmodel.Region, err error) {
	code := query.Get(rawQuery, "entityCode")
	switch query.Get(rawQuery, "entityType") {
	case "asn":
		v, perr := strconv.ParseUint(code, 10, 32)
		if perr != nil {
			return false, 0, 0, fmt.Errorf("bad ASN %q", code)
		}
		return true, netmodel.ASN(v), 0, nil
	case "region":
		r, ok := netmodel.RegionByName(code)
		if !ok {
			return false, 0, 0, fmt.Errorf("unknown region %q", code)
		}
		return false, 0, r, nil
	}
	return false, 0, 0, fmt.Errorf("entityType must be asn or region")
}

func datasourceOf(k signals.Kind) string {
	if k.Has(signals.SignalBGP) && !k.Has(signals.SignalFBS) {
		return "bgp"
	}
	return "active-probing"
}

func (s *Server) renderEvents(dst []byte, rawQuery string) ([]byte, bool, int, string) {
	isAS, asn, region, err := entity(rawQuery)
	if err != nil {
		return nil, false, http.StatusBadRequest, err.Error()
	}
	tl := s.p.store.Timeline()
	var det *signals.Detection
	code, etype := "", "region"
	if isAS {
		code, etype = asn.String(), "asn"
		if !s.p.Reported(asn) {
			// Below the reporting floor: empty result, as the real
			// platform returns for uncovered ASes.
			return renderEnvelope(dst, "outage.events", []Event{})
		}
		det = s.Store().Detection(s.asEntity(asn))
	} else {
		code = region.String()
		det = s.Store().Detection(s.regionEntity(region))
	}
	events := make([]Event, 0, len(det.Outages))
	for _, o := range det.Outages {
		events = append(events, Event{
			EntityType: etype,
			EntityCode: code,
			Datasource: datasourceOf(o.Signals),
			Start:      tl.Time(o.Start).Unix(),
			Duration:   int64(o.Duration(tl.Interval()) / time.Second),
			Ongoing:    o.Ongoing,
		})
	}
	return renderEnvelope(dst, "outage.events", events)
}

func (s *Server) renderSignals(dst []byte, rawQuery string) ([]byte, bool, int, string) {
	isAS, asn, region, err := entity(rawQuery)
	if err != nil {
		return nil, false, http.StatusBadRequest, err.Error()
	}
	var ent *serve.Entity
	if isAS {
		if !s.p.HasCoverage(asn) {
			return renderEnvelope(dst, "signals.raw", []SignalPoint{})
		}
		ent = s.asEntity(asn)
	} else {
		ent = s.regionEntity(region)
	}
	tl := s.p.store.Timeline()
	from, until := int64(0), int64(1<<62)
	if v, err := strconv.ParseInt(query.Get(rawQuery, "from"), 10, 64); err == nil {
		from = v
	}
	if v, err := strconv.ParseInt(query.Get(rawQuery, "until"), 10, 64); err == nil {
		until = v
	}
	var pts []SignalPoint
	s.Store().Snapshot(func(wm int) {
		for round := 0; round < wm; round++ {
			if ent.Missing(round) {
				continue
			}
			t := tl.Time(round).Unix()
			if t < from || t > until {
				continue
			}
			pts = append(pts, SignalPoint{Time: t, BGP: float64(ent.BGP(round)), TRIN: float64(ent.FBS(round))})
		}
	})
	return renderEnvelope(dst, "signals.raw", pts)
}
