// Soapbridge: the SOAP half of the case study, driven entirely by model
// files — the deployment path of Section 5.1.
//
// The program loads the case-study models (the files of models/, compiled
// into the binary) through the public API, points the deployment spec at
// the live Picasa address, and starts the mediator. It then contrasts the
// Starlink mediator with the naive protocol-only bridge on the same
// workload: the SOAP Flickr client succeeds through the mediator and
// fails through the bridge (the Section 1 argument, live).
//
// Run with: go run ./examples/soapbridge
package main

import (
	"fmt"
	"log"

	"starlink/internal/bind"
	"starlink/internal/bridge"
	"starlink/internal/casestudy"
	"starlink/internal/protocol/soap"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	modelfiles "starlink/models"
	"starlink/starlink"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		return err
	}
	defer pic.Close()
	fmt.Println("Picasa REST service at", pic.Addr())

	models, err := starlink.LoadModelsFS(modelfiles.FS)
	if err != nil {
		return err
	}
	// The spec's service address is a placeholder; this run's is live.
	spec := models.Mediators["flickr-soap"]
	spec.Sides[1].Target = pic.Addr()
	spec.Engine.HostMap[casestudy.PicasaHost] = pic.Addr()
	med, err := starlink.Deploy("flickr-soap", models, starlink.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer med.Close()
	fmt.Println("Starlink mediator (from model files) at", med.Addr())

	// The unmodified SOAP Flickr client, through the mediator.
	c := soap.NewClient(med.Addr(), "/services/soap")
	defer c.Close()
	results, err := c.Call(casestudy.FlickrSearch,
		soap.Param{Name: "text", Value: "cat"},
		soap.Param{Name: "per_page", Value: "2"},
	)
	if err != nil {
		return err
	}
	var ids []string
	for _, p := range results {
		if p.Name == "photo_id" {
			ids = append(ids, p.Value)
		}
	}
	fmt.Printf("mediated search(cat) -> %v\n", ids)
	info, err := c.Call(casestudy.FlickrGetInfo, soap.Param{Name: "photo_id", Value: ids[0]})
	if err != nil {
		return err
	}
	for _, p := range info {
		if p.Name == "url" {
			fmt.Printf("mediated getInfo(%s).url = %s\n", ids[0], p.Value)
		}
	}
	if _, err := c.Call(casestudy.FlickrGetComments, soap.Param{Name: "photo_id", Value: ids[0]}); err != nil {
		return err
	}
	added, err := c.Call(casestudy.FlickrAddComment,
		soap.Param{Name: "photo_id", Value: ids[0]},
		soap.Param{Name: "comment_text", Value: "what a cat"},
	)
	if err != nil {
		return err
	}
	fmt.Printf("mediated addComment -> %s\n", added[0].Value)

	// Now the strawman: a protocol-only bridge on the same workload.
	routes, err := starlink.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		return err
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		return err
	}
	br := bridge.New(&bind.SOAPBinder{Path: "/services/soap"}, restBinder, pic.Addr())
	if err := br.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer br.Close()
	bc := soap.NewClient(br.Addr(), "/services/soap")
	defer bc.Close()
	if _, err := bc.Call(casestudy.FlickrSearch, soap.Param{Name: "text", Value: "cat"}); err != nil {
		fmt.Printf("\nprotocol-only bridge, same call: FAILS as the paper predicts\n  (%v)\n", err)
		return nil
	}
	return fmt.Errorf("the protocol-only bridge unexpectedly worked")
}
