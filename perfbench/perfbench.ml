(* perfbench: the end-to-end and per-layer benchmark.

     perfbench --workload serve|embed|store-read|stream-live
               --seed N --seconds S --trace 0|1

   A run makes a fixed number of repetitions (about S seconds of timed
   work on the reference host), each a fresh set-up and then the timed
   phase, on seeds derived from N.  It checks every repetition's outputs,
   checks that a repeated repetition reproduces its result digest, and
   prints each metric by name and unit; the last line of stdout is the
   JSON result.  --trace 0 reports the end-to-end metrics.  --trace 1
   runs each repetition untraced and traced, reports the per-layer
   metrics, and writes the spans to .perfbench/trace-<workload>-<N>.jsonl. *)

module C = Common

module type WORKLOAD = sig
  val nominal_s : float
  (** Timed seconds of one repetition on the reference host (2 cores,
      OCaml 5.1.1, no flambda). *)

  val iterate : seed:int -> C.Tally.t -> C.iteration
  (** One untraced repetition. *)

  val traced : seed:int -> Span.t -> C.Tally.t -> C.iteration * Span.t list
  (** The same repetition with spans (into the given recorder, plus any
      recorders of other domains it returns) and per-layer tallies. *)

  val layers :
    recs:Span.t list -> tally:C.Tally.t -> traced_iters:int ->
    (string * float) list
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("serve", (module Serve));
    ("embed", (module Embed));
    ("store-read", (module Store_read));
    ("stream-live", (module Stream_live));
  ]

(* Per-layer metrics and their units, as BENCHMARK.json lists them.  A
   layer a workload bypasses reads 0. *)
let per_layer =
  [
    ("topology.generate_s", "s");
    ("topology.analyze_s", "s");
    ("backend.create_s", "s");
    ("backend.query_ns_mean", "ns");
    ("backend.share", "share");
    ("backend.queries", "count");
    ("backend.synthesized", "count");
    ("measure.requests_per_op", "requests/op");
    ("measure.issued_per_op", "probes/op");
    ("measure.cache_hit_ratio", "share");
    ("measure.cache.evicted", "count");
    ("measure.lost", "count");
    ("measure.retried", "count");
    ("measure.denied", "count");
    ("measure.down", "count");
    ("measure.unmeasured", "count");
    ("vivaldi.create_s", "s");
    ("vivaldi.round_ms_p50", "ms");
    ("vivaldi.self_s", "s");
    ("vivaldi.alloc_words_per_probe", "words/probe");
    ("core.maint_embed_s", "s");
    ("core.maint_probes", "count");
    ("tiv.eval_s", "s");
    ("meridian.overlay_build_s", "s");
    ("meridian.closest_us_p50", "us");
    ("meridian.closest_us_p99", "us");
    ("meridian.probes_per_closest", "probes/query");
    ("meridian.hops_per_closest", "hops/query");
    ("meridian.share", "share");
    ("dht.build_s", "s");
    ("dht.lookup_us_p50", "us");
    ("dht.lookup_us_p99", "us");
    ("dht.hops_mean", "hops");
    ("dht.share", "share");
    ("overlay.tree_build_s", "s");
    ("overlay.refresh_ms_p50", "ms");
    ("overlay.refresh_ms_p90", "ms");
    ("overlay.requests_per_refresh", "requests/refresh");
    ("overlay.switches", "count");
    ("overlay.share", "share");
    ("service.world_build_s", "s");
    ("service.cpu_util", "share");
    ("service.imbalance", "ratio");
    ("store.create_s", "s");
    ("store.read_us_p50", "us");
    ("store.read_us_p99", "us");
    ("store.repair_pass_ms_p50", "ms");
    ("store.probes_per_read", "probes/read");
    ("store.dead_attempts", "count");
    ("store.handoffs", "count");
    ("stream.create_s", "s");
    ("stream.run_s", "s");
    ("stream.deliveries", "count");
    ("stream.overhead_ratio", "ratio");
    ("stream.pull_hit_ratio", "share");
    ("stream.regrafts", "count");
    ("trace.ops_per_s", "1/s");
    ("trace.overhead_share", "share");
  ]

(* ---- Host record ----------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (String.trim (In_channel.input_all ic)))

(* The commit of the checkout, read from .git without running git;
   "unknown" outside a git work tree. *)
let git_commit () =
  let packed ref_ =
    Option.bind (read_file ".git/packed-refs") (fun packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ hash; r ] when r = ref_ -> Some hash
               | _ -> None))
  in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      match read_file (Filename.concat ".git" ref_) with
      | Some hash -> hash
      | None -> Option.value (packed ref_) ~default:"unknown")
    | _ -> head)

(* CPUs this process may run on (what `nproc` prints), from the
   Cpus_allowed_list of /proc/self/status, e.g. "0-1" or "0,2-3". *)
let nproc () =
  let count list =
    String.split_on_char ',' (String.trim list)
    |> List.fold_left
         (fun acc part ->
           match String.split_on_char '-' part with
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | _ -> acc + 1)
         0
  in
  match read_file "/proc/self/status" with
  | None -> 0
  | Some status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "Cpus_allowed_list"; list ] -> (
             try Some (count list) with Failure _ -> None)
           | _ -> None)
    |> Option.value ~default:0

let json_obj fields =
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let host_record () =
  json_obj
    [
      ("nproc", string_of_int (nproc ()));
      ( "recommended_domain_count",
        string_of_int (Domain.recommended_domain_count ()) );
      ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
      ("flambda", string_of_bool Build_info.flambda);
      ("git_commit", Printf.sprintf "%S" (git_commit ()));
    ]

(* ---- Runs -------------------------------------------------------------- *)

(* Repetition [i] of a run with seed [seed] runs on seed [seed * 1000 + i]:
   a run averages over several request streams, overlays and fault
   schedules, and every run of a seed makes the same ones. *)
let sub_seed seed i = (seed * 1000) + i

let repetitions ~seconds nominal_s =
  max 1 (min 999 (int_of_float (Float.round (seconds /. nominal_s))))

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let sum f its = List.fold_left (fun acc it -> acc +. f it) 0. its

let ops_per_s its = C.ops_per_s (List.concat_map (fun it -> it.C.segments) its)

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME serve | embed | store-read | stream-live" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let (module W : WORKLOAD) =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  let seed = !seed and traced = !trace = 1 in
  let host = host_record () in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n"
    !workload seed !seconds !trace;
  Printf.printf "host: %s\n%!" host;
  let tally = C.Tally.create () in
  let main_rec = Span.create ~domain:0 in
  let recs = ref [ main_rec ] in
  let repeat seconds f =
    List.init (repetitions ~seconds W.nominal_s) (fun i -> f (sub_seed seed i))
  in
  (* Untraced: a warm-up repetition (its set-up is one more setup_s
     sample, its digest must equal the first timed repetition's), then
     the timed repetitions.  Traced: each repetition runs untraced and
     traced, alternating which goes first, and the two digests must
     agree. *)
  let warmup, untraced, traced_its, pairs =
    if not traced then begin
      let warm = W.iterate ~seed:(sub_seed seed 0) tally in
      let its = repeat !seconds (fun seed -> W.iterate ~seed tally) in
      ([ warm ], its, [], [ (warm, List.hd its) ])
    end
    else begin
      let pairs =
        repeat (!seconds /. 2.) (fun seed ->
            let untraced () = W.iterate ~seed tally in
            let traced () =
              let it, more = W.traced ~seed main_rec tally in
              recs := !recs @ more;
              it
            in
            if seed mod 2 = 0 then
              let u = untraced () in
              (u, traced ())
            else
              let t = traced () in
              (untraced (), t))
      in
      ([], List.map fst pairs, List.map snd pairs, pairs)
    end
  in
  let all = untraced @ traced_its in
  let failed_checks =
    List.concat_map
      (fun it ->
        List.filter_map
          (fun (name, ok) -> if ok then None else Some name)
          it.C.checks)
      all
    |> List.sort_uniq compare
  in
  List.iter (Printf.printf "check FAILED: %s\n") failed_checks;
  let mismatched = List.filter (fun (a, b) -> a.C.digest <> b.C.digest) pairs in
  if mismatched <> [] then
    Printf.printf
      "check FAILED: %d of %d repeated repetitions changed their result digest\n"
      (List.length mismatched) (List.length pairs);
  let correct = failed_checks = [] && mismatched = [] in
  let attempted = List.fold_left (fun acc it -> acc + it.C.ops) 0 all in
  let failed = List.fold_left (fun acc it -> acc + it.C.failed) 0 all in
  let metrics =
    if not traced then
      let setups = List.map (fun it -> it.C.setup_s) (warmup @ untraced) in
      let share = C.ratio (float_of_int failed) (float_of_int attempted) in
      [
        ("setup_s", C.median (Array.of_list setups), "s");
        ("ops_per_s", ops_per_s untraced, "1/s");
        ( "alloc_words_per_op",
          C.ratio (sum (fun it -> it.C.alloc_words) untraced)
            (float_of_int attempted),
          "words/op" );
        ("peak_rss_mb", C.peak_rss_mb (), "MB");
        ("ok_share", 1. -. share, "share");
      ]
    else begin
      let plain = ops_per_s untraced and with_spans = ops_per_s traced_its in
      let measured =
        W.layers ~recs:!recs ~tally ~traced_iters:(List.length traced_its)
        @ [
            ("trace.ops_per_s", with_spans);
            ("trace.overhead_share", C.ratio (plain -. with_spans) plain);
          ]
      in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then
            failwith ("perfbench: unlisted per-layer metric " ^ name))
        measured;
      List.map
        (fun (name, unit) ->
          (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
        per_layer
    end
  in
  Printf.printf
    "repetitions: %d untraced, %d traced; attempted=%d failed=%d; result \
     digest %s\n"
    (List.length untraced) (List.length traced_its) attempted failed
    (C.digest_string
       (String.concat "," (List.map (fun it -> it.C.digest) untraced)));
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "  %-32s %24s %s\n" name (number v) unit)
    metrics;
  if traced then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/trace-%s-%d.jsonl" !workload seed in
    let header =
      Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"host\": %s}" !workload
        seed host
    in
    Span.write path ~header !recs;
    Printf.printf "spans written to %s\n" path
  end;
  let metric_json (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))
