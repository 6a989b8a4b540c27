package main

// Per-layer metrics, computed from the traced slices' spans, the
// adapter's per-request serving stats and the serving counters' deltas.

// queryLayers fills the client, httpserve, answer, serve and segment
// metrics from a traced run's query traffic.
func (b *bench) queryLayers(d counters, queries, respBytes, sent, shed int64) {
	tr := b.tr
	clientSpans := tr.byName("client.query")
	edgeSpans := tr.byName("edge.handle")
	answerSpans := tr.byName("backend.answer")
	isQuery := make(map[uint64]bool, len(clientSpans))
	for _, s := range clientSpans {
		isQuery[s.ID] = true
	}
	var joined []Span
	joined = append(joined, clientSpans...)
	joined = append(joined, edgeSpans...)
	joined = append(joined, answerSpans...)
	self := selfTimes(joined)

	var residual, edgeSelf []float64
	for _, s := range clientSpans {
		residual = append(residual, float64(self[s.ID])/1e3)
	}
	for _, s := range edgeSpans {
		if isQuery[s.Parent] {
			edgeSelf = append(edgeSelf, float64(self[s.ID])/1e3)
		}
	}
	L := b.layer
	L["client.residual_p50_us"] = median(residual)
	L["httpserve.self_p50_us"] = median(edgeSelf)
	L["httpserve.self_p99_us"] = summarize(edgeSelf).Tail
	L["httpserve.resp_kb_per_query"] = ratio(float64(respBytes)/1024, float64(queries))
	L["httpserve.backend_calls_per_query"] = ratio(float64(len(answerSpans)), float64(len(clientSpans)))
	L["httpserve.shed_frac"] = ratio(float64(shed), float64(sent))

	tr.mu.Lock()
	answers := append([]answerRec(nil), tr.answers...)
	tr.mu.Unlock()
	var derive, scan []float64
	var emit, encode, cells, scanned, derives, scanNS float64
	for _, a := range answers {
		derive = append(derive, float64(a.deriveNS)/1e3)
		emit += float64(a.emitNS)
		encode += float64(a.encodeNS)
		cells += float64(a.cells)
		if !a.hit && !a.coalesced {
			derives++
			scanned += float64(a.cellsScanned)
		}
		if a.cold {
			scan = append(scan, float64(a.deriveNS)/1e6)
			scanNS += float64(a.deriveNS)
		}
	}
	L["answer.derive_p50_us"] = median(derive)
	L["answer.derive_p99_us"] = summarize(derive).Tail
	L["answer.emit_ns_per_cell"] = ratio(emit, cells)
	L["answer.encode_ns_per_cell"] = ratio(encode, cells)
	L["answer.cells_per_query"] = ratio(cells, float64(len(answers)))

	q := float64(d.queries)
	nDerive := float64(d.leaf + d.ancestor + d.coldScans)
	L["serve.hit_frac"] = ratio(float64(d.hits), q)
	L["serve.coalesced_frac"] = ratio(float64(d.coalesced), q)
	L["serve.derives_per_query"] = ratio(nDerive, q)
	L["serve.ancestor_frac"] = ratio(float64(d.ancestor), nDerive)
	L["serve.cells_scanned_per_derive"] = ratio(scanned, derives)
	L["serve.evictions_per_query"] = ratio(float64(d.evictions), q)
	L["serve.resident_mb"] = float64(d.residentBytes) / (1 << 20)

	io := d.io
	L["segment.scans_per_query"] = ratio(float64(d.coldScans), q)
	L["segment.scan_p50_ms"] = median(scan)
	L["segment.rows_per_scan"] = ratio(float64(io.RowsScanned), float64(d.coldScans))
	L["segment.bytes_read_per_row"] = ratio(float64(io.BytesRead), float64(io.RowsScanned))
	L["segment.read_s_frac"] = ratio(io.ReadSeconds, scanNS/1e9)
	L["segment.blocks_skipped_frac"] = ratio(float64(io.BlocksSkipped), float64(io.BlocksScanned+io.BlocksSkipped))
}
