package main

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"countrymon/internal/campaign"
)

// runCoordinated is the multi-country entry point behind -countries and
// -config: compile the campaign spec into a coordinator over one shared
// vantage fleet, drive every country's rounds in lockstep, print a
// per-country summary, and optionally serve the country-scoped API. Like
// -packet-rounds, a SIGINT or SIGTERM during the rounds is exit 130.
func (e *env) runCoordinated(countries, config, serveAddr string) int {
	var (
		spec *campaign.Spec
		err  error
	)
	if config != "" {
		spec, err = campaign.Load(config)
	} else {
		spec, err = campaign.Quick(strings.Split(countries, ","))
	}
	if err != nil {
		return e.fail("%v", err)
	}

	co, err := campaign.New(spec, campaign.Options{Registry: e.reg, Bus: e.bus})
	if err != nil {
		return e.fail("%v", err)
	}
	defer co.Close()

	// A signal from here on stops the campaign at the next round boundary.
	ctx, stop := interruptible()
	e.log.Printf("coordinated campaign: %d countries over %d shared vantages, %d rounds every %v",
		len(spec.Countries), spec.Vantages, spec.Rounds, spec.Interval)
	for _, c := range co.Countries() {
		e.log.Printf("  %s (%s): share %.2f → %d pps, %d ASes, %d /24 blocks",
			c.Code, c.Name, c.Share, spec.CountryRate(c.Code),
			c.World.Space.NumASes(), c.World.Space.NumBlocks())
	}

	err = co.Run(ctx)
	stop()
	switch {
	case errors.Is(err, context.Canceled):
		e.log.Printf("countrymon: interrupted at round %d of %d", co.Round(), spec.Rounds)
		return 130
	case err != nil:
		return e.fail("%v", err)
	}

	for _, c := range co.Countries() {
		store := c.Monitor.Store()
		missing := 0
		for r := 0; r < spec.Rounds; r++ {
			if store.Missing(r) {
				missing++
			}
		}
		outages := 0
		for _, as := range c.World.Space.ASes() {
			outages += len(c.Monitor.DetectAS(as.ASN).Outages)
		}
		rep := c.FleetReport()
		e.log.Printf("%s: %d rounds (%d missing), %d AS outage events, fleet steals %d, quarantined %v",
			c.Code, spec.Rounds, missing, outages, rep.Steals, rep.Quarantined)

		for _, as := range c.World.Space.ASes() {
			d := c.Monitor.DetectAS(as.ASN)
			if len(d.Outages) > 0 {
				e.log.Printf("%s: %v (%s) outage events:", c.Code, as.ASN, as.Name)
				printOutages(e.stdout, d, store, 5)
			}
		}
	}

	if serveAddr != "" {
		for _, c := range co.Countries() {
			if err := c.Store.AdvanceTo(spec.Rounds); err != nil {
				return e.fail("campaign: seal %s: %v", c.Code, err)
			}
		}
		e.log.Printf("serving /v1/countries and per-country /v1/countries/{cc}/... on http://%s (legacy /v1/* aliases country %s)",
			serveAddr, co.Countries()[0].Code)
		if err := http.ListenAndServe(serveAddr, co.Router()); err != nil {
			return e.fail("serve: %v", err)
		}
	}
	return 0
}
