package xmlenc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/message"
	"starlink/internal/testutil"
)

// The oracle: the encoding/xml decoder and the buffer-and-concatenate
// encoder that the Reader and the Writer replaced, kept as they were.
// DecodeTree must build the same tree for every document the oracle
// accepts, the Writer the same bytes for every tree.

func oracleDecodeTree(data []byte) (*message.Field, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: no root element", ErrMalformed)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			return oracleDecodeElement(dec, se)
		}
	}
}

func oracleDecodeElement(dec *xml.Decoder, se xml.StartElement) (*message.Field, error) {
	f := message.NewStruct(se.Name.Local)
	for _, a := range se.Attr {
		name := a.Name.Local
		if a.Name.Space != "" && a.Name.Space != "xmlns" {
			name = a.Name.Space + ":" + name
		}
		f.Add(message.NewPrimitive("@"+name, message.TypeString, a.Value))
	}
	var text strings.Builder
	hasChildren := len(f.Children) > 0
	hasElems := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := oracleDecodeElement(dec, t)
			if err != nil {
				return nil, err
			}
			f.Add(child)
			hasChildren, hasElems = true, true
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			content := text.String()
			if hasElems {
				content = strings.TrimSpace(content)
			}
			switch {
			case !hasChildren:
				return message.NewPrimitive(f.Label, message.TypeString, content), nil
			case strings.TrimSpace(content) != "":
				f.Add(message.NewPrimitive("#text", message.TypeString, strings.TrimSpace(content)))
			}
			return f, nil
		}
	}
}

func oracleEncodeDoc(f *message.Field) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(docHeader)
	if err := oracleEncodeField(&b, f); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func oracleEncodeField(b *bytes.Buffer, f *message.Field) error {
	if strings.HasPrefix(f.Label, "@") || f.Label == "#text" {
		return fmt.Errorf("xmlenc: %q cannot be a top-level element", f.Label)
	}
	b.WriteByte('<')
	b.WriteString(f.Label)
	if f.Type.Primitive() {
		b.WriteByte('>')
		if err := xml.EscapeText(b, []byte(f.ValueString())); err != nil {
			return err
		}
		b.WriteString("</" + f.Label + ">")
		return nil
	}
	var elems []*message.Field
	var text string
	for _, c := range f.Children {
		switch {
		case strings.HasPrefix(c.Label, "@"):
			b.WriteString(" " + c.Label[1:] + `="`)
			if err := xml.EscapeText(b, []byte(c.ValueString())); err != nil {
				return err
			}
			b.WriteString(`"`)
		case c.Label == "#text":
			text = c.ValueString()
		default:
			elems = append(elems, c)
		}
	}
	if len(elems) == 0 && text == "" {
		b.WriteString("/>")
		return nil
	}
	b.WriteByte('>')
	if text != "" {
		if err := xml.EscapeText(b, []byte(text)); err != nil {
			return err
		}
	}
	for _, c := range elems {
		if err := oracleEncodeField(b, c); err != nil {
			return err
		}
	}
	b.WriteString("</" + f.Label + ">")
	return nil
}

// seeds are the documents both fuzz targets start from: the request and
// reply bodies of the five bench workloads (SOAP Plus, the XML-RPC Flickr
// calls, the Picasa feeds and entries), then one document per corner of
// the syntax the Reader reads by hand.
var seeds = []string{
	// add_steady, add_churn_gateway
	"<?xml version=\"1.0\"?>\n<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body><Plus><x>123456</x><y>654321</y></Plus></Body></Envelope>",
	"<?xml version=\"1.0\"?>\n<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body><PlusResponse><result>777777</result></PlusResponse></Body></Envelope>",
	"<?xml version=\"1.0\"?>\n<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body><Fault><faultcode>Server</faultcode><faultstring>mediation failed: no &lt;route&gt; &amp; no &#34;luck&#34;</faultstring></Fault></Body></Envelope>",
	// flickr_flow, search_large, search_cached_mix: client side
	"<?xml version=\"1.0\"?>\n<methodCall><methodName>flickr.photos.search</methodName><params><param><value><struct><member><name>per_page</name><value><int>3</int></value></member><member><name>text</name><value><string>tree</string></value></member></struct></value></param></params></methodCall>",
	"<?xml version=\"1.0\"?>\n<methodResponse><params><param><value><struct><member><name>ok</name><value><boolean>1</boolean></value></member><member><name>photos</name><value><array><data><value><struct><member><name>id</name><value><string>photo-0001</string></value></member><member><name>owner</name><value><string>alice</string></value></member><member><name>title</name><value><string>Tree at dawn #1</string></value></member><member><name>url</name><value><string>http://photos.example/photo-0001.jpg</string></value></member></struct></value><value><struct><member><name>id</name><value><string>photo-0002</string></value></member><member><name>owner</name><value><string>bob</string></value></member><member><name>title</name><value><string>Tree &amp; sea</string></value></member><member><name>url</name><value><string>http://photos.example/photo-0002.jpg</string></value></member></struct></value></data></array></value></member><member><name>score</name><value><double>0.5</double></value></member><member><name>total</name><value><int>2</int></value></member></struct></value></param></params></methodResponse>",
	"<?xml version=\"1.0\"?>\n<methodCall><methodName>flickr.photos.comments.addComment</methodName><params><param><value><struct><member><name>comment_text</name><value><string>bench-000042</string></value></member><member><name>photo_id</name><value><string>photo-0008</string></value></member></struct></value></param></params></methodCall>",
	"<?xml version=\"1.0\"?>\n<methodResponse><params><param><value><struct><member><name>comment_id</name><value><string>comment-0042</string></value></member></struct></value></param></params></methodResponse>",
	"<?xml version=\"1.0\"?>\n<methodResponse><fault><value><struct><member><name>faultCode</name><value><int>500</int></value></member><member><name>faultString</name><value><string>mediation failed</string></value></member></struct></value></fault></methodResponse>",
	// the same three: service side
	"<?xml version=\"1.0\"?>\n<feed><title>Search Results</title><entry><id>photo-0001</id><title>Tree at dawn #1</title><author><name>alice</name></author><content type=\"image/jpeg\" src=\"http://photos.example/photo-0001.jpg\"/></entry><entry><id>photo-0002</id><title>Tree &amp; sea</title><author><name>bob</name></author><content type=\"image/jpeg\" src=\"http://photos.example/photo-0002.jpg\"/></entry></feed>",
	"<?xml version=\"1.0\"?>\n<feed><title>Comments on photo-0001</title><entry><id>comment-0001</id><title>comment</title><summary>nice shot</summary><author><name>carol</name></author></entry></feed>",
	"<?xml version=\"1.0\"?>\n<entry><id></id><title></title><summary>bench-000042</summary></entry>",
	"<?xml version=\"1.0\"?>\n<entry><id>comment-0042</id><title>comment</title><summary>bench-000042</summary><author><name>picasa-user</name></author></entry>",

	// CDATA, alone and between text
	"<a><![CDATA[x < y && z]]></a>",
	"<a>one <![CDATA[<two>]]> three<b/><![CDATA[]]></a>",
	// numeric and named references, in text and in attribute values
	"<a t='&#65;&#x42;&#x10FFFF;&#xD800;'>&lt;&gt;&amp;&apos;&quot;&#9;&#xa;</a>",
	"<a>&nbsp;</a>", "<a>&#;</a>", "<a>&#x;</a>", "<a>&#X41;</a>", "<a>&lt</a>", "<a>& </a>", "<a>&#1114112;</a>",
	// line ends: \r\n and \r become \n, &#xD; stays
	"<a k=\"1\r\n2\r3\">x\r\ny\rz&#xD;\n<![CDATA[\r\n]]></a>",
	// comments and processing instructions inside content, and around the root
	"<!-- head --><?pi one?><a>x<!-- c -->y<?pi two?>z<b/></a><!-- tail -->",
	"<!----><a><!---->t</a>", "<a><!-- -- --></a>", "<?xml?><a/>", "<?xml-stylesheet href='x'?><a/>",
	// prefixed elements and attributes, declared, undeclared and reserved
	"<s:Envelope xmlns:s='urn:soap' s:mustUnderstand='1' t:x='2' xml:lang='en'><s:Body/></s:Envelope>",
	"<a p:x='1' xmlns:p='urn:late'><b p:y='2'/></a>", "<a><b xmlns:p='urn:b'/><c p:z='3'/></a>",
	"<a xmlns:p='' p:x='1' xmlns:q='xmlns' q:y='2'/>", "<a:b:c/>", "<:a/>", "<a: x:='1' :y='2'/>",
	"<a xmlns:p='1' xmlns:p='2' p:x=''/>",
	"<?xml version=\"1.0\" encoding=\"utf-8\"?><soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\" xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\"><soapenv:Body><PlusResponse><result xsi:type=\"xsd:int\">42</result></PlusResponse></soapenv:Body></soapenv:Envelope>",
	// a declaration hidden by an inner one is back when the inner element closes
	"<a xmlns:p='1'><b xmlns:p='2' xmlns:q='3' p:x='' q:x=''><c xmlns:p='' p:x=''/><c p:x=''/></b><b p:x='' q:x=''/></a>",
	// self-closing tags, single-quoted attributes, spaces where they may be
	"<a/>", "<a />", "<a b='1' c=\"2\"/>", "<a b = '1'c='2' ></a >", "<a b='>' c='\"'>'</a>",
	// whitespace: kept in a leaf, trimmed beside children, dropped when blank
	"<a>  </a>", "<a>\n  <b> x </b>\n  tail\n</a>", "<a k='v'>  </a>", "<a k='v'> t </a>", "<a> <b/> </a>",
	// declarations: skipped, or refused for an internal subset or a foreign encoding
	"<!DOCTYPE a><a/>", "<!DOCTYPE a SYSTEM \"x>y\"><a/>", "<!DOCTYPE a [<!ENTITY e 'v'>]><a>&e;</a>",
	"<!><a/>", "<r><!>x></r>", "<!x<!---->><a/>",
	"<?xml version='1.0' encoding='ISO-8859-1'?><a/>", "<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>", "<?xml version='1.1'?><a/>",
	"<?xml version=\"1.0\" xencoding=x encoding=\"ISO-8859-1\"?><a>caf\xe9</a>",
	// not documents
	"", "not xml", "<a>", "<a><b></a></b>", "</a>", "<a></a >x</a>", "<a", "<a b>", "<a b=1/>", "<a/>trailing<",
	"\xef\xbb\xbf<a/>", "<a>\xff</a>", "<a>\x00</a>", "<a>]]></a>",
}

func sameTree(t *testing.T, data []byte) {
	t.Helper()
	// The oracle has no depth bound: keep what would overflow its stack
	// away from it.
	if bytes.Count(data, []byte("<")) > 10*MaxDepth {
		return
	}
	want, oracleErr := oracleDecodeTree(data)
	got, err := DecodeTree(data)
	if (err != nil) != (got == nil) {
		t.Fatalf("DecodeTree(%q) = %v, %v", data, got, err)
	}
	if err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("DecodeTree(%q): %v does not wrap ErrMalformed", data, err)
	}
	if oracleErr != nil {
		// The Reader does not validate: it may read what the oracle refuses,
		// but only for what it does not claim to check.
		if err == nil && !testutil.XMLUnvalidated(data, oracleErr) {
			t.Fatalf("DecodeTree(%q) reads %v; the oracle refuses it: %v", data, message.New("", got), oracleErr)
		}
		return
	}
	if err != nil {
		// The only documents the Reader may refuse and the oracle not.
		if errors.Is(err, ErrTooDeep) || errors.Is(err, ErrTooLarge) || errors.Is(err, errEncoding) || errors.Is(err, errDTD) {
			return
		}
		t.Fatalf("DecodeTree(%q): %v, the oracle reads %v", data, err, want)
	}
	if !got.Equal(want) {
		t.Fatalf("DecodeTree(%q)\n got %v\nwant %v", data, message.New("", got), message.New("", want))
	}
}

func TestDecodeTreeMatchesOracleOnSeeds(t *testing.T) {
	for _, doc := range seeds {
		sameTree(t, []byte(doc))
	}
}

func FuzzDecodeTree(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameTree)
}

// FuzzEncodeDecode takes its trees from documents. The Writer must render
// each as the old encoder did, and a tree read from a document the oracle
// accepts — valid names, valid characters — must survive the round trip.
func FuzzEncodeDecode(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := DecodeTree(data)
		if err != nil {
			return
		}
		doc, err := EncodeDoc(tree)
		if err != nil {
			t.Fatalf("EncodeDoc(%v): %v", tree, err)
		}
		want, err := oracleEncodeDoc(tree)
		if err != nil || !bytes.Equal(doc, want) {
			t.Fatalf("EncodeDoc(%v)\n got %q\nwant %q (%v)", tree, doc, want, err)
		}
		if _, err := oracleDecodeTree(data); err != nil || !namesSurvive(tree) {
			return
		}
		back, err := DecodeTree(doc)
		if err != nil || !back.Equal(tree) {
			t.Fatalf("DecodeTree(EncodeDoc(t)) of %q\n got %v (%v)\nwant %v", data, back, err, tree)
		}
	})
}

// namesSurvive reports whether every label of the tree can be written as
// a name and read back: a prefixed attribute's label holds its namespace,
// and a namespace is any text. The namespace "xml" is one too: written
// out, it is the reserved prefix, and reads back as the XML namespace.
func namesSurvive(f *message.Field) bool {
	if strings.HasPrefix(f.Label, "@xml:") {
		return false
	}
	if f.Label != "#text" {
		for _, c := range []byte(strings.TrimPrefix(f.Label, "@")) {
			if !nameByte[c] {
				return false
			}
		}
	}
	for _, c := range f.Children {
		if !namesSurvive(c) {
			return false
		}
	}
	return true
}

// TestDepthBound is the one-packet kill: the recursive decoder died of a
// stack overflow on this body, which no recover catches.
func TestDepthBound(t *testing.T) {
	_, err := DecodeTree(bytes.Repeat([]byte("<a>"), 5<<20))
	if !errors.Is(err, ErrTooDeep) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("15 MiB of <a>: err = %v, want ErrTooDeep wrapping ErrMalformed", err)
	}
	deepest := strings.Repeat("<a>", MaxDepth) + strings.Repeat("</a>", MaxDepth)
	if _, err := DecodeTree([]byte(deepest)); err != nil {
		t.Errorf("MaxDepth levels: %v", err)
	}
	if _, err := DecodeTree([]byte("<a>" + deepest + "</a>")); !errors.Is(err, ErrTooDeep) {
		t.Errorf("MaxDepth+1 levels: err = %v", err)
	}
}

// TestQualifiedLabelBound: a 1 KB namespace under 10 000 attribute names
// would be 10 MB of labels for a 70 KB packet, and is refused. A SOAP
// envelope, and one that types each of its 10 000 parameters with the same
// xsi:type, are read: a label that repeats is built once.
func TestQualifiedLabelBound(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`<a xmlns:p="` + strings.Repeat("u", 1024) + `">`)
	for i := 0; i < 10_000; i++ {
		fmt.Fprintf(&doc, `<b p:a%d=""/>`, i)
	}
	doc.WriteString("</a>")
	if _, err := DecodeTree([]byte(doc.String())); !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("1 KB namespace x 10 000 attribute names: err = %v, want ErrTooLarge wrapping ErrMalformed", err)
	}
	envelope := `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" ` +
		`xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" ` +
		`soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"><soapenv:Body><Plus>%s</Plus></soapenv:Body></soapenv:Envelope>`
	typed := strings.Repeat(`<x xsi:type="xsd:int">1</x>`, 10_000)
	for _, params := range []string{`<x>20</x><y>22</y>`, typed} {
		data := []byte(fmt.Sprintf(envelope, params))
		if _, err := DecodeTree(data); err != nil {
			t.Fatalf("SOAP envelope: %v", err)
		}
		sameTree(t, data)
	}
}

// TestManyBindingsStayLinear is the other hostile packet: tens of thousands
// of xmlns:p declarations in scope and as many attributes on a prefix none
// of them binds. Resolving a prefix by walking the declarations made that
// quadratic, minutes of CPU for a body inside network.MaxMessageSize; the
// oracle looks prefixes up in a map and sets the pace here.
func TestManyBindingsStayLinear(t *testing.T) {
	var decls, attrs, kids strings.Builder
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&decls, " xmlns:p%d=''", i)
	}
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&attrs, " q:x%d=''", i)
		fmt.Fprintf(&kids, "<b q:x=''/>")
	}
	fastest := func(decode func([]byte) (*message.Field, error), data []byte) (*message.Field, time.Duration) {
		var tree *message.Field
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f, err := decode(data)
			if err != nil {
				t.Fatal(err)
			}
			tree, best = f, min(best, time.Since(start))
		}
		return tree, best
	}
	for name, doc := range map[string]string{
		"one start tag": "<a" + decls.String() + attrs.String() + "/>",
		"in scope":      "<a" + decls.String() + ">" + kids.String() + "</a>",
	} {
		want, pace := fastest(oracleDecodeTree, []byte(doc))
		got, took := fastest(DecodeTree, []byte(doc))
		if !got.Equal(want) {
			t.Errorf("%s: the trees differ", name)
		}
		if took > 4*pace {
			t.Errorf("%s: %d bytes decoded in %v, the oracle needs %v", name, len(doc), took, pace)
		}
	}
}

// treeCosts counts what a decoded tree makes the decoder allocate.
type treeCosts struct {
	fields, parents, texts int
	labels                 map[string]bool
}

func (c *treeCosts) add(f *message.Field) {
	c.fields++
	if knownLabel([]byte(f.Label)) == "" {
		c.labels[f.Label] = true
	}
	if f.Type.Primitive() {
		if f.ValueString() != "" {
			c.texts++
		}
		return
	}
	c.parents++
	for _, k := range f.Children {
		c.add(k)
	}
}

// TestDecodeAllocBudget pins the decoder to what the tree it returns is
// made of: one Field per field, one Children slice per parent, the bytes
// of each non-empty text (the string lives in the node, with no box around
// it), one string per label the static table does not know — counted once
// however often the document repeats it — and nothing per token.
func TestDecodeAllocBudget(t *testing.T) {
	for _, doc := range seeds[:12] {
		data := []byte(doc)
		tree, err := DecodeTree(data)
		if err != nil {
			t.Fatal(err)
		}
		costs := treeCosts{labels: map[string]bool{}}
		costs.add(tree)
		budget := costs.fields + costs.parents + costs.texts + len(costs.labels)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeTree(data); err != nil {
				t.Fatal(err)
			}
		})
		if testutil.RaceEnabled {
			continue
		}
		if int(allocs) > budget {
			t.Errorf("decode allocated %.0f times, budget %d (%d fields, %d parents, %d texts, %d new labels): %.60s",
				allocs, budget, costs.fields, costs.parents, costs.texts, len(costs.labels), doc)
		}
	}
}

// TestEncodeAllocBudget: rendering a tree allocates the copy handed out
// and nothing else.
func TestEncodeAllocBudget(t *testing.T) {
	for _, doc := range seeds[:12] {
		tree, err := DecodeTree([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := EncodeDoc(tree); err != nil {
				t.Fatal(err)
			}
		})
		if !testutil.RaceEnabled && allocs > 1 {
			t.Errorf("encode allocated %.0f times, budget 1: %.60s", allocs, doc)
		}
	}
}

// TestConcurrentUse shares the reader, builder and writer pools between
// goroutines, for the race detector (`make race`).
func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, doc := range seeds[:12] {
					tree, err := DecodeTree([]byte(doc))
					if err != nil {
						t.Error(err)
						return
					}
					if out, err := EncodeDoc(tree); err != nil || string(out) != doc {
						t.Errorf("EncodeDoc(DecodeTree(doc)) = %q, %v, want %q", out, err, doc)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
