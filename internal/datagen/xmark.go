package datagen

import (
	"math/rand"

	"tasm/internal/tree"
)

// XMark returns an auction-site document following the XMark benchmark
// schema used for the scalability experiments of Section VII-A: a site
// root with six regional item listings, categories, people, and open and
// closed auctions. Like the original generator, the node count grows
// linearly with the scale factor while the document height stays constant
// (the paper reports height 13 for all XMark sizes; the deepest path here
// is site/regions/region/item/description/parlist/listitem/parlist/
// listitem/text/keyword/emph plus the text leaf).
//
// scale 1 yields roughly 30k nodes; the paper's 112MB base document has
// 3.4M nodes, so one paper-MB corresponds to about scale 0.27 here.
func XMark(scale int) *Dataset {
	if scale < 1 {
		scale = 1
	}
	regions := []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	// Items are distributed over the regions like in XMark (europe and
	// namerica get the bulk).
	itemShare := map[string]int{
		"africa": 10, "asia": 20, "australia": 10,
		"europe": 60, "namerica": 60, "samerica": 15,
	}
	regionGroups := make([]group, len(regions))
	for i, r := range regions {
		regionGroups[i] = group{label: r, count: itemShare[r] * scale, make: xmarkItem}
	}
	return &Dataset{
		name: "xmark",
		root: group{
			label: "site",
			kids: []group{
				{label: "regions", kids: regionGroups},
				{label: "categories", count: 25 * scale, make: xmarkCategory},
				{label: "catgraph", count: 25 * scale, make: xmarkEdge},
				{label: "people", count: 100 * scale, make: xmarkPerson},
				{label: "open_auctions", count: 50 * scale, make: xmarkOpenAuction},
				{label: "closed_auctions", count: 40 * scale, make: xmarkClosedAuction},
			},
		},
	}
}

// xmarkText builds the recursive text/parlist structure that gives XMark
// documents their depth. depth ≥ 1.
func xmarkParlist(rng *rand.Rand, depth int) *tree.Node {
	pl := tree.NewNode("parlist")
	for i := 0; i < 1+rng.Intn(2); i++ {
		li := tree.NewNode("listitem")
		if depth > 1 && rng.Intn(3) == 0 {
			li.AddChild(xmarkParlist(rng, depth-1))
		} else {
			txt := tree.NewNode("text", tree.NewNode(phrase(rng)))
			if rng.Intn(3) == 0 {
				txt.AddChild(tree.NewNode("keyword", tree.NewNode(word(rng), tree.NewNode("emph", tree.NewNode(word(rng))))))
			}
			li.AddChild(txt)
		}
		pl.AddChild(li)
	}
	return pl
}

func xmarkDescription(rng *rand.Rand) *tree.Node {
	d := tree.NewNode("description")
	if rng.Intn(2) == 0 {
		d.AddChild(xmarkParlist(rng, 2))
	} else {
		d.AddChild(tree.NewNode("text", tree.NewNode(phrase(rng))))
	}
	return d
}

func xmarkItem(rng *rand.Rand, i int) *tree.Node {
	item := tree.NewNode("item",
		tree.NewNode("location", tree.NewNode(word(rng))),
		tree.NewNode("quantity", tree.NewNode(itoa(1+rng.Intn(10)))),
		tree.NewNode("name", tree.NewNode(phrase(rng))),
		tree.NewNode("payment", tree.NewNode(word(rng))),
		xmarkDescription(rng),
		tree.NewNode("shipping", tree.NewNode(word(rng))),
	)
	mail := tree.NewNode("mailbox")
	for m := 0; m < rng.Intn(3); m++ {
		mail.AddChild(tree.NewNode("mail",
			tree.NewNode("from", tree.NewNode(personName(rng))),
			tree.NewNode("to", tree.NewNode(personName(rng))),
			tree.NewNode("date", tree.NewNode(yearStr(rng))),
			tree.NewNode("text", tree.NewNode(phrase(rng))),
		))
	}
	item.AddChild(mail)
	return item
}

func xmarkCategory(rng *rand.Rand, i int) *tree.Node {
	return tree.NewNode("category",
		tree.NewNode("name", tree.NewNode(phrase(rng))),
		xmarkDescription(rng),
	)
}

func xmarkEdge(rng *rand.Rand, i int) *tree.Node {
	return tree.NewNode("edge",
		tree.NewNode("from", tree.NewNode("category"+itoa(rng.Intn(100)))),
		tree.NewNode("to", tree.NewNode("category"+itoa(rng.Intn(100)))),
	)
}

func xmarkPerson(rng *rand.Rand, i int) *tree.Node {
	// Labels draw from bounded vocabularies, as in the real corpora where
	// names, hosts and references repeat; an unbounded label space would
	// make the shared dictionary (not the algorithm) grow with the
	// document.
	p := tree.NewNode("person",
		tree.NewNode("name", tree.NewNode(personName(rng))),
		tree.NewNode("emailaddress", tree.NewNode("mailto:"+word(rng)+"."+word(rng)+"@example.com")),
	)
	if rng.Intn(2) == 0 {
		p.AddChild(tree.NewNode("phone", tree.NewNode(itoa(1000000+rng.Intn(8999999)))))
	}
	if rng.Intn(2) == 0 {
		p.AddChild(tree.NewNode("address",
			tree.NewNode("street", tree.NewNode(phrase(rng))),
			tree.NewNode("city", tree.NewNode(word(rng))),
			tree.NewNode("country", tree.NewNode(word(rng))),
		))
	}
	prof := tree.NewNode("profile",
		tree.NewNode("education", tree.NewNode(word(rng))),
		tree.NewNode("business", tree.NewNode("Yes")),
	)
	for in := 0; in < rng.Intn(3); in++ {
		prof.AddChild(tree.NewNode("interest", tree.NewNode("category"+itoa(rng.Intn(100)))))
	}
	p.AddChild(prof)
	return p
}

func xmarkBidder(rng *rand.Rand) *tree.Node {
	return tree.NewNode("bidder",
		tree.NewNode("date", tree.NewNode(yearStr(rng))),
		tree.NewNode("personref", tree.NewNode("person"+itoa(rng.Intn(1000)))),
		tree.NewNode("increase", tree.NewNode(itoa(1+rng.Intn(50)))),
	)
}

func xmarkOpenAuction(rng *rand.Rand, i int) *tree.Node {
	oa := tree.NewNode("open_auction",
		tree.NewNode("initial", tree.NewNode(itoa(10+rng.Intn(200)))),
	)
	for b := 0; b < 1+rng.Intn(3); b++ {
		oa.AddChild(xmarkBidder(rng))
	}
	oa.AddChild(tree.NewNode("current", tree.NewNode(itoa(10+rng.Intn(500)))))
	oa.AddChild(tree.NewNode("itemref", tree.NewNode("item"+itoa(rng.Intn(1000)))))
	oa.AddChild(tree.NewNode("seller", tree.NewNode("person"+itoa(rng.Intn(1000)))))
	oa.AddChild(tree.NewNode("annotation",
		tree.NewNode("author", tree.NewNode(personName(rng))),
		xmarkDescription(rng),
	))
	oa.AddChild(tree.NewNode("quantity", tree.NewNode(itoa(1+rng.Intn(5)))))
	oa.AddChild(tree.NewNode("type", tree.NewNode("Regular")))
	oa.AddChild(tree.NewNode("interval",
		tree.NewNode("start", tree.NewNode(yearStr(rng))),
		tree.NewNode("end", tree.NewNode(yearStr(rng))),
	))
	return oa
}

func xmarkClosedAuction(rng *rand.Rand, i int) *tree.Node {
	return tree.NewNode("closed_auction",
		tree.NewNode("seller", tree.NewNode("person"+itoa(rng.Intn(1000)))),
		tree.NewNode("buyer", tree.NewNode("person"+itoa(rng.Intn(1000)))),
		tree.NewNode("itemref", tree.NewNode("item"+itoa(rng.Intn(1000)))),
		tree.NewNode("price", tree.NewNode(itoa(10+rng.Intn(500)))),
		tree.NewNode("date", tree.NewNode(yearStr(rng))),
		tree.NewNode("quantity", tree.NewNode(itoa(1+rng.Intn(5)))),
		tree.NewNode("type", tree.NewNode("Regular")),
		tree.NewNode("annotation",
			tree.NewNode("author", tree.NewNode(personName(rng))),
			xmarkDescription(rng),
		),
	)
}
