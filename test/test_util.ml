(* Unit and property tests for tivaware.util. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Cdf = Tivaware_util.Cdf
module Binned = Tivaware_util.Binned
module Vec = Tivaware_util.Vec
module Linalg = Tivaware_util.Linalg
module Pqueue = Tivaware_util.Pqueue
module Welford = Tivaware_util.Welford
module Table = Tivaware_util.Table
module Ascii_plot = Tivaware_util.Ascii_plot

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkf_loose eps = Alcotest.check (Alcotest.float eps)

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr matches
  done;
  Alcotest.(check bool) "split stream independent" true (!matches < 4)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_rng_gauss_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gauss rng ~mean:5. ~stddev:2.) in
  checkf_loose 0.1 "gauss mean" 5. (Stats.mean samples);
  checkf_loose 0.1 "gauss stddev" 2. (Stats.stddev samples)

let test_rng_exponential_mean () =
  let rng = Rng.create 12 in
  let samples = Array.init 20_000 (fun _ -> Rng.exponential rng ~rate:0.5) in
  checkf_loose 0.1 "exp mean 1/rate" 2. (Stats.mean samples)

let test_rng_pareto_min () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.pareto rng ~shape:1.5 ~scale:3. in
    Alcotest.(check bool) "pareto >= scale" true (v >= 3.)
  done

let test_rng_uniform_bounds () =
  let rng = Rng.create 21 in
  for _ = 1 to 500 do
    let v = Rng.uniform rng (-3.) 7. in
    Alcotest.(check bool) "uniform in [lo, hi)" true (v >= -3. && v < 7.)
  done

let test_rng_lognormal_positive () =
  let rng = Rng.create 22 in
  let samples = Array.init 5000 (fun _ -> Rng.lognormal rng ~mu:1. ~sigma:0.5) in
  Array.iter
    (fun v -> Alcotest.(check bool) "lognormal positive" true (v > 0.))
    samples;
  (* Median of a lognormal is exp(mu). *)
  checkf_loose 0.2 "lognormal median" (exp 1.) (Stats.median samples)

let test_rng_choice () =
  let rng = Rng.create 14 in
  let arr = [| 1; 5; 9 |] in
  for _ = 1 to 100 do
    let v = Rng.choice rng arr in
    Alcotest.(check bool) "choice member" true (Array.exists (( = ) v) arr)
  done

let prop_rng_int_bounds =
  qcheck "rng int in [0, bound)"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  qcheck "rng float in [0, bound)"
    QCheck2.Gen.(pair (float_range 0.001 1e6) int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0. && v < bound)

let prop_shuffle_multiset =
  qcheck "shuffle preserves elements"
    QCheck2.Gen.(pair (list int) int)
    (fun (l, seed) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_permutation =
  qcheck "permutation is a bijection"
    QCheck2.Gen.(pair (int_range 1 200) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let p = Rng.permutation rng n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all Fun.id seen)

let prop_sample_indices =
  qcheck "sample_indices distinct and in range"
    QCheck2.Gen.(pair (int_range 1 300) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      (* Exercise both the dense and sparse sampling regimes. *)
      List.for_all
        (fun k ->
          let s = Rng.sample_indices rng ~n ~k in
          let tbl = Hashtbl.create k in
          Array.iter (fun i -> Hashtbl.replace tbl i ()) s;
          Array.length s = k
          && Hashtbl.length tbl = k
          && Array.for_all (fun i -> i >= 0 && i < n) s)
        [ 0; min 1 n; n / 7; n / 2; n ])

(* Known answers, generated before the generator's state moved into an
   unboxed byte buffer: the first 16 outputs of every draw, rendered
   exactly (int64 in hex, floats with %h), for seeds across the int
   range.  The tests above compare streams with each other; these catch
   a change that alters every stream the same way. *)
let kat_seeds = [ 0; 1; -1; 2007; max_int ]

let first16 f = String.concat " " (List.init 16 (fun _ -> f ()))
let hex64 r = Printf.sprintf "%Lx" (Rng.int64 r)
let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

(* "split" and "copy" end with the parent's next output after the
   child's 16, so the parent's trajectory is pinned too. *)
let kat_draws =
  [
    ("int64", fun r -> first16 (fun () -> hex64 r));
    ("int", fun r -> first16 (fun () -> string_of_int (Rng.int r 1_000_003)));
    ("float", fun r -> first16 (fun () -> Printf.sprintf "%h" (Rng.float r 1.)));
    ( "bernoulli",
      fun r -> String.init 16 (fun _ -> if Rng.bernoulli r 0.3 then '1' else '0') );
    ( "gauss",
      fun r ->
        first16 (fun () -> Printf.sprintf "%h" (Rng.gauss r ~mean:0. ~stddev:1.)) );
    ( "split",
      fun r ->
        let c = Rng.split r in
        first16 (fun () -> hex64 c) ^ " / " ^ hex64 r );
    ( "copy",
      fun r ->
        ignore (Rng.int64 r);
        let c = Rng.copy r in
        first16 (fun () -> hex64 c) ^ " / " ^ hex64 r );
    ("permutation", fun r -> ints (Rng.permutation r 16));
    ("sample_indices dense", fun r -> ints (Rng.sample_indices r ~n:20 ~k:16));
    ( "sample_indices sparse",
      fun r -> ints (Rng.sample_indices r ~n:1_000_000 ~k:16) );
  ]

let kat_expected =
  [
    ("int64", 0, "e220a8397b1dcdaf 6e789e6aa1b965f4 6c45d188009454f f88bb8a8724c81ec 1b39896a51a8749b 53cb9f0c747ea2ea 2c829abe1f4532e1 c584133ac916ab3c 3ee5789041c98ac3 f3b8488c368cb0a6 657eecdd3cb13d09 c2d326e0055bdef6 8621a03fe0bbdb7b 8e1f7555983aa92f b54e0f1600cc4d19 84bb3f97971d80ab");
    ("int64", 1, "910a2dec89025cc1 beeb8da1658eec67 f893a2eefb32555e 71c18690ee42c90b 71bb54d8d101b5b9 c34d0bff90150280 e099ec6cd7363ca5 85e7bb0f12278575 491718de357e3da8 cb435c8e74616796 6775dc7701564f61 9afcd44d14cf8bfe 7476cf8a4baa5dc0 87b341d690d7a28a 6f9b6dae6f4c57a8 2ac2ce17a5794a3b");
    ("int64", (-1), "e4d971771b652c20 e99ff867dbf682c9 382ff84cb27281e9 6d1db36ccba982d2 b4a0472e578069ae d31dadbda438bb33 f14f2cf802083fa5 405da438a39e8064 c4fea708156e0c84 31e50fe7bbd6e1c 3b234961e71cf15 ce755952d3025da7 1c9558bd006badb dd90e10f6f7c1c8a 354d0df8b25878c1 aceea13ca07e34e8");
    ("int64", 2007, "accac86204ddbe19 e5dbb7214cda4435 31ba1b2c3df295fc 6f5c1fa86b05751d 3e738513b8f5e0aa a2879052ea927a56 7b01a09749c1156d ef07219136e11014 5f197884156a6d6c 8d1cd25f90f5e3f2 28d72d00618fbede 2063d1923cfa23a4 9c81c5a33b7757b3 b35930f74af8683f 1f09030f7e38cc3f 88ec9a8c1d680e76");
    ("int64", max_int, "43df0885536978a6 101018cc4a4cadfd f7123db96bb11521 6eb32f7ee5175c16 b954958d2f637748 e07958afd6d62eb7 bce9aaa54afdb47e 7eea021a2857177 1f352ff21e902313 3af8cf713f523122 62eb064f3249c986 45aa5934ee2760c9 3a25649334650c4a 7f808d5a4cc20242 ac220bfb975459a5 4caf495e78571c0e");
    ("int", 0, "1248 607872 218951 899533 285792 425248 273623 710615 482413 393695 605590 282667 789622 838252 646090 225386");
    ("int", 1, "436383 652540 556454 322844 253574 594335 365055 925014 715265 479072 246728 851348 868519 380766 269051 810709");
    ("int", (-1), "13903 56817 515118 707109 102799 370548 120999 538874 765257 699285 937351 765534 118854 713734 600921 30890");
    ("int", 2007, "969458 287414 931959 938419 858817 682004 293786 709067 614083 727815 342777 284249 301926 543776 291979 434664");
    ("int", max_int, "872517 614747 450663 52017 210538 789331 521894 496981 526408 977821 663515 823062 248911 219671 621497 883435");
    ("float", 0, "0x1.c4415072f63b9p-1 0x1.b9e279aa86e58p-2 0x1.b1174620025p-6 0x1.f1177150e499p-1 0x1.b39896a51a87p-4 0x1.4f2e7c31d1fa8p-2 0x1.6414d5f0fa298p-3 0x1.8b082675922d5p-1 0x1.f72bc4820e4c4p-3 0x1.e77091186d196p-1 0x1.95fbb374f2c4ep-2 0x1.85a64dc00ab7bp-1 0x1.0c43407fc177bp-1 0x1.1c3eeaab30755p-1 0x1.6a9c1e2c01989p-1 0x1.09767f2f2e3bp-1");
    ("float", 1, "0x1.22145bd91204bp-1 0x1.7dd71b42cb1ddp-1 0x1.f12745ddf664ap-1 0x1.c7061a43b90b2p-2 0x1.c6ed53634406cp-2 0x1.869a17ff202ap-1 0x1.c133d8d9ae6c7p-1 0x1.0bcf761e244fp-1 0x1.245c6378d5f8ep-2 0x1.9686b91ce8c2cp-1 0x1.9dd771dc05592p-2 0x1.35f9a89a299f1p-1 0x1.d1db3e292ea96p-2 0x1.0f6683ad21af4p-1 0x1.be6db6b9bd314p-2 0x1.561670bd2bca4p-3");
    ("float", (-1), "0x1.c9b2e2ee36ca5p-1 0x1.d33ff0cfb7edp-1 0x1.c17fc2659394p-3 0x1.b476cdb32ea6p-2 0x1.69408e5caf00dp-1 0x1.a63b5b7b48717p-1 0x1.e29e59f004107p-1 0x1.017690e28e7ap-2 0x1.89fd4e102adc1p-1 0x1.8f287f3ddeb4p-7 0x1.d91a4b0f38e4p-7 0x1.9ceab2a5a604bp-1 0x1.c9558bd006b8p-8 0x1.bb21c21edef83p-1 0x1.aa686fc592c3cp-3 0x1.59dd427940fc6p-1");
    ("float", 2007, "0x1.599590c409bb7p-1 0x1.cbb76e4299b48p-1 0x1.8dd0d961ef948p-3 0x1.bd707ea1ac15cp-2 0x1.f39c289dc7afp-3 0x1.450f20a5d524fp-1 0x1.ec06825d27044p-2 0x1.de0e43226dc22p-1 0x1.7c65e21055a9ap-2 0x1.1a39a4bf21ebcp-1 0x1.46b968030c7dcp-3 0x1.031e8c91e7d1p-3 0x1.39038b4676eeap-1 0x1.66b261ee95f0dp-1 0x1.f09030f7e38c8p-4 0x1.11d935183ad01p-1");
    ("float", max_int, "0x1.0f7c22154da5ep-2 0x1.01018cc4a4ca8p-4 0x1.ee247b72d7622p-1 0x1.baccbdfb945d6p-2 0x1.72a92b1a5ec6ep-1 0x1.c0f2b15fadac5p-1 0x1.79d3554a95fb6p-1 0x1.fba80868a15cp-6 0x1.f352ff21e902p-4 0x1.d7c67b89fa918p-3 0x1.8bac193cc9272p-2 0x1.16a964d3b89d8p-2 0x1.d12b2499a3284p-3 0x1.fe0235693308p-2 0x1.584417f72ea8bp-1 0x1.32bd2579e15c6p-2");
    ("bernoulli", 0, "0010101010000000");
    ("bernoulli", 1, "0000000010000001");
    ("bernoulli", (-1), "0010000101101010");
    ("bernoulli", 2007, "0010100000110010");
    ("bernoulli", max_int, "1100000111011001");
    ("gauss", 0, "-0x1.e247d108691cfp+0 0x1.d2241bf902964p-3 -0x1.c581393a15295p-3 0x1.55aeaef334755p-4 0x1.6f2574ff978aap-1 0x1.1d280f2433e9ep-4 -0x1.255b252434185p+0 -0x1.8f1a0c64384dep+0 0x1.bb03f36d6ab1p-4 0x1.8280237e43317p-2 -0x1.0d3eb48987864p+0 -0x1.199c956d7418ap+0 -0x1.c7a794c042212p+0 -0x1.5574e27a73211p-6 0x1.4a7105f2cd6efp+0 0x1.fc4e38b194926p-2");
    ("gauss", 1, "-0x1.18b7c84d5c3b6p-5 -0x1.4002362ce87bdp+1 0x1.674facc896de5p-4 -0x1.0379279a48e07p+1 0x1.ca56e94386dd9p-3 -0x1.9ad5854bf4fecp-1 -0x1.15027b0bec018p+0 0x1.10ddd22f8278ap-1 0x1.264490ebfb3f9p-1 0x1.217940994578cp+0 0x1.49dcff708e3b6p-2 0x1.acbdf43daa158p-1 0x1.9220e93b1953ep-1 -0x1.16352c95f1f92p-2 0x1.3242a6859a259p-2 -0x1.27a4ae90b517ep+0");
    ("gauss", (-1), "0x1.ce90bb8312787p+0 -0x1.426a096ddcd5ep-1 0x1.6a04ddde69877p-1 -0x1.5fa97dc84101p-6 0x1.b54c7b1351444p+0 0x1.e572453a1d55bp-5 0x1.41b051b39cefdp-4 -0x1.3ba3143d7d352p-2 0x1.757ca7fcb38c7p-2 -0x1.ec8cca256d176p-2 -0x1.c7e4d4c31a5abp-2 0x1.8c9de844450a7p-2 -0x1.0e19ef8a5ae9p-1 -0x1.d3ff8d0e7dddfp+0 0x1.abc36961879d9p+0 0x1.808bdc5166f0ep-2");
    ("gauss", 2007, "0x1.33798c2e83c0ap+0 -0x1.34d38fc86019dp-1 -0x1.fade446ce0244p-2 0x1.0bec95ffee67ap+0 -0x1.d419058280945p-1 0x1.a6ca95499419p-2 -0x1.ae2a321509ed7p-2 -0x1.fc28ebe90be0dp-2 0x1.75e0c2bbc079ap-4 -0x1.dc155a43b4f2ep-2 0x1.9c5c58292201fp-2 0x1.e05b41cdc85eep+0 0x1.44c9d263f2fe8p-1 0x1.7f16616766d14p+0 -0x1.f4d11010a5c16p-2 -0x1.36ce93e709404p-1");
    ("gauss", max_int, "0x1.730cf7d6eba01p-1 -0x1.2e2a226ac0c3dp+1 0x1.25cca115dc0a4p+0 0x1.9b0c36c5a2af5p+0 0x1.01176966b0955p-4 -0x1.188c994b1ef3bp-3 -0x1.6f81ee475419dp-1 -0x1.d49e0c0dedf07p-2 0x1.bef33d17734cfp-1 0x1.1472ec3d37aedp-5 0x1.26581e1d7fb8fp-2 0x1.053708503d35ap-6 -0x1.e0b400c40fe34p-1 -0x1.0eeef5459d823p+0 -0x1.291de78f1253bp+1 -0x1.6bd6501a9020dp-1");
    ("split", 0, "a706dd2f4d197e6f b382a305f4414f5e 631a9154fbabf717 a80aba8c86640906 c9b5ae106698f0bb 256fa269a2420ea1 c755bbac848bcebe 43dec8be6926a4de 600fb8d528d256a9 9194d5bff03b9779 66c8ff35dab54690 1a78f208b81b6137 151cf79d6673264e 8dbd341ca7bf651c 907942417876970a 59ae167a9f4eef28 / 6e789e6aa1b965f4");
    ("split", 1, "5e41ab087439611e f18d6ce93d6cf1ee b95f66d327e8d78 c7061b1b93322ba9 3817edddf9257651 c63f062c5c30e3d4 a05302141a219f0b 3f391c8a76d960bb 2d49e4067617136b 3e70a2ed0827d343 9d600a250e66d9e0 ed85bc0929a10819 25e5a1f31d0f4d00 c89d554e344ebc76 bc9e9deb3c2aa940 5b0ad7b5e85080c2 / beeb8da1658eec67");
    ("split", (-1), "5dc20aa7b2a27137 bda5668a01d7049c 82b43276abb80226 ed4d5ed4a6ea59b4 8306445ed348a658 276ebc0e52f41c24 dec5741011329d07 b94ec6a04d7b4627 10ab666f6224661c e14c0cbdfec8973a c8ffad896927d011 20d5b5fcb502c79 fb0023605fabbc5e f865bec1a08dfa21 3e8000c95cffe134 2190e410d3980854 / e99ff867dbf682c9");
    ("split", 2007, "dff644ab9e4cb01e aa57a897c8878763 38b154203acaab2a 5718112bc56a2527 b73b96afb380fcce 7186571b12628dcc 9c516b49602ec6d3 95f70c6ac9692f9a e6a7eac76593367f 9cd811344a041e3b caec7de5e507e6f0 12c00deb4e0699e9 ff39ac02fe77fff2 9713d154015e6601 3858e6718c1d2bb6 d936a004b07f0542 / e5dbb7214cda4435");
    ("split", max_int, "f98a035473f2714c 32f9feb17027d805 14725a363ae04cfb 282bd854c6618e79 85305a2d36f3d91 6391d08a3b8055dc a29724cd0c0e1405 5b28f8e0ed0c49be 9b3ab3ae9b9a5ab4 225af8b020bd7452 858ce287290ef960 883b17417da3d02e 81a2dac61b688a46 959330c4f89f9128 82581a4e4f283d7c c1c6457d9872ccc0 / 101018cc4a4cadfd");
    ("copy", 0, "6e789e6aa1b965f4 6c45d188009454f f88bb8a8724c81ec 1b39896a51a8749b 53cb9f0c747ea2ea 2c829abe1f4532e1 c584133ac916ab3c 3ee5789041c98ac3 f3b8488c368cb0a6 657eecdd3cb13d09 c2d326e0055bdef6 8621a03fe0bbdb7b 8e1f7555983aa92f b54e0f1600cc4d19 84bb3f97971d80ab 7d29825c75521255 / 6e789e6aa1b965f4");
    ("copy", 1, "beeb8da1658eec67 f893a2eefb32555e 71c18690ee42c90b 71bb54d8d101b5b9 c34d0bff90150280 e099ec6cd7363ca5 85e7bb0f12278575 491718de357e3da8 cb435c8e74616796 6775dc7701564f61 9afcd44d14cf8bfe 7476cf8a4baa5dc0 87b341d690d7a28a 6f9b6dae6f4c57a8 2ac2ce17a5794a3b a534a6a6b7fd0b63 / beeb8da1658eec67");
    ("copy", (-1), "e99ff867dbf682c9 382ff84cb27281e9 6d1db36ccba982d2 b4a0472e578069ae d31dadbda438bb33 f14f2cf802083fa5 405da438a39e8064 c4fea708156e0c84 31e50fe7bbd6e1c 3b234961e71cf15 ce755952d3025da7 1c9558bd006badb dd90e10f6f7c1c8a 354d0df8b25878c1 aceea13ca07e34e8 6887829e84a5e267 / e99ff867dbf682c9");
    ("copy", 2007, "e5dbb7214cda4435 31ba1b2c3df295fc 6f5c1fa86b05751d 3e738513b8f5e0aa a2879052ea927a56 7b01a09749c1156d ef07219136e11014 5f197884156a6d6c 8d1cd25f90f5e3f2 28d72d00618fbede 2063d1923cfa23a4 9c81c5a33b7757b3 b35930f74af8683f 1f09030f7e38cc3f 88ec9a8c1d680e76 5c2b61c42d090ae2 / e5dbb7214cda4435");
    ("copy", max_int, "101018cc4a4cadfd f7123db96bb11521 6eb32f7ee5175c16 b954958d2f637748 e07958afd6d62eb7 bce9aaa54afdb47e 7eea021a2857177 1f352ff21e902313 3af8cf713f523122 62eb064f3249c986 45aa5934ee2760c9 3a25649334650c4a 7f808d5a4cc20242 ac220bfb975459a5 4caf495e78571c0e ad69de818b8a9f7a / 101018cc4a4cadfd");
    ("permutation", 0, "4 12 13 9 1 7 15 14 2 8 6 10 3 5 0 11");
    ("permutation", 1, "9 10 6 12 8 7 14 11 13 1 3 2 15 5 4 0");
    ("permutation", (-1), "4 0 15 10 13 3 6 9 5 1 14 7 11 12 2 8");
    ("permutation", 2007, "14 8 2 4 11 9 15 12 1 5 0 10 3 13 7 6");
    ("permutation", max_int, "15 8 0 14 11 1 12 13 5 3 6 2 7 4 10 9");
    ("sample_indices dense", 0, "11 14 16 5 1 10 19 15 12 17 18 8 2 0 7 6");
    ("sample_indices dense", 1, "3 19 11 17 13 12 1 10 8 4 0 18 9 5 2 14");
    ("sample_indices dense", (-1), "2 5 3 10 8 18 17 6 19 7 1 9 14 15 13 11");
    ("sample_indices dense", 2007, "2 6 15 0 1 3 7 18 8 17 9 19 12 13 11 10");
    ("sample_indices dense", max_int, "9 3 16 6 10 5 18 15 14 1 0 12 4 7 8 19");
    ("sample_indices sparse", 0, "651883 588925 886419 135611 523686 790522 76728 86735 155824 765097 610050 101181 896670 612107 368454 821226");
    ("sample_indices sparse", 1, "205616 607129 722647 445058 742190 132512 966761 15133 89130 659237 844184 675967 347696 84130 790954 649934");
    ("sample_indices sparse", (-1), "110984 472242 104250 369460 708651 752268 595241 919129 873185 757703 198597 659881 921718 893026 23536 869114");
    ("sample_indices sparse", 2007, "287174 76877 617535 466951 812970 362581 935835 111301 808219 874300 492215 626345 112684 299471 801551 342941");
    ("sample_indices sparse", max_int, "685417 287935 500872 794629 584594 182253 125343 912733 696132 167048 955361 642162 30546 541968 837929 404035");
  ]

let test_rng_known_answers name draw () =
  List.iter
    (fun seed ->
      let expected =
        List.find_map
          (fun (n, s, e) -> if n = name && s = seed then Some e else None)
          kat_expected
      in
      check Alcotest.(option string)
        (Printf.sprintf "%s, seed %d" name seed)
        expected
        (Some (draw (Rng.create seed))))
    kat_seeds

let kat_cases =
  List.map
    (fun (name, draw) ->
      Alcotest.test_case ("known answers " ^ name) `Quick
        (test_rng_known_answers name draw))
    kat_draws

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_known () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf "mean" 5. (Stats.mean xs);
  checkf_loose 1e-6 "variance" (32. /. 7.) (Stats.variance xs);
  checkf "median" 4.5 (Stats.median xs)

let test_stats_percentile_interpolation () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  checkf "p0" 10. (Stats.percentile xs 0.);
  checkf "p100" 40. (Stats.percentile xs 100.);
  checkf "p50 interpolated" 25. (Stats.percentile xs 50.);
  checkf_loose 1e-9 "p25" 17.5 (Stats.percentile xs 25.)

let test_stats_single () =
  checkf "single element" 3. (Stats.percentile [| 3. |] 77.);
  checkf "single median" 3. (Stats.median [| 3. |])

let test_stats_empty () =
  checkf "mean empty" 0. (Stats.mean [||]);
  checkf "variance empty" 0. (Stats.variance [||]);
  Alcotest.check_raises "summarize empty"
    (Invalid_argument "Stats.summarize: empty array") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 2. |] in
  checkf "min" (-1.) lo;
  checkf "max" 7. hi

let float_list_gen = QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1e3) 1e3))

let prop_percentile_monotone =
  qcheck "percentile monotone in p" float_list_gen (fun l ->
      let xs = Array.of_list l in
      let sorted = Stats.sorted_copy xs in
      let prev = ref neg_infinity in
      List.for_all
        (fun p ->
          let v = Stats.percentile_sorted sorted p in
          let ok = v >= !prev in
          prev := v;
          ok)
        [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ])

let prop_mean_bounded =
  qcheck "mean within [min, max]" float_list_gen (fun l ->
      let xs = Array.of_list l in
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Cdf                                                                 *)

let test_cdf_count_and_mean () =
  let c = Cdf.of_samples [| 3.; 1.; 2. |] in
  Alcotest.(check int) "count" 3 (Cdf.count c);
  checkf "mean_of" 2. (Cdf.mean_of c)

let test_sorted_copy_pure () =
  let xs = [| 3.; 1.; 2. |] in
  let sorted = Stats.sorted_copy xs in
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] xs;
  Alcotest.(check (array (float 0.))) "copy sorted" [| 1.; 2.; 3. |] sorted

let test_vec_add_inplace () =
  let dst = [| 1.; 2. |] in
  Vec.add_inplace dst [| 10.; 20. |];
  Alcotest.(check (array (float 1e-9))) "accumulated" [| 11.; 22. |] dst

let test_cdf_basics () =
  let c = Cdf.of_samples [| 1.; 2.; 3.; 4. |] in
  checkf "below min" 0. (Cdf.eval c 0.5);
  checkf "at min" 0.25 (Cdf.eval c 1.);
  checkf "mid" 0.5 (Cdf.eval c 2.5);
  checkf "at max" 1. (Cdf.eval c 4.);
  checkf "above max" 1. (Cdf.eval c 100.)

let test_cdf_quantile () =
  let c = Cdf.of_samples [| 10.; 20.; 30.; 40.; 50. |] in
  checkf "q0.2" 10. (Cdf.quantile c 0.2);
  checkf "q0.5" 30. (Cdf.quantile c 0.5);
  checkf "q1" 50. (Cdf.quantile c 1.)

let test_cdf_points () =
  let c = Cdf.of_samples (Array.init 1000 float_of_int) in
  let pts = Cdf.points ~max_points:10 c in
  Alcotest.(check int) "downsampled" 10 (List.length pts);
  let fractions = List.map snd pts in
  checkf "last fraction is 1" 1. (List.nth fractions 9)

let prop_cdf_monotone =
  qcheck "cdf eval monotone" float_list_gen (fun l ->
      let c = Cdf.of_samples (Array.of_list l) in
      let lo, hi = Stats.min_max (Array.of_list l) in
      let step = (hi -. lo +. 1.) /. 20. in
      let prev = ref (-1.) in
      List.for_all
        (fun k ->
          let v = Cdf.eval c (lo +. (float_of_int k *. step)) in
          let ok = v >= !prev in
          prev := v;
          ok)
        (List.init 22 Fun.id))

(* ------------------------------------------------------------------ *)
(* Binned                                                              *)

let test_binned_basics () =
  let obs = [ (5., 1.); (15., 2.); (17., 4.); (25., 8.) ] in
  let b = Binned.make ~width:10. (List.to_seq obs) in
  Alcotest.(check int) "three bins" 3 (List.length b);
  let second = List.nth b 1 in
  checkf "bin center" 15. second.Binned.x_mid;
  Alcotest.(check int) "bin count" 2 second.Binned.count;
  checkf "bin median" 3. second.Binned.p50

let test_binned_filters () =
  let obs = [ (-5., 1.); (5., 2.); (105., 3.) ] in
  let b = Binned.make ~width:10. ~x_max:100. (List.to_seq obs) in
  Alcotest.(check int) "negative and beyond-max dropped" 1 (List.length b)

let prop_binned_ordered =
  qcheck "bins ordered and percentiles sorted"
    QCheck2.Gen.(list_size (int_range 1 200) (pair (float_range 0. 1000.) (float_range (-10.) 10.)))
    (fun obs ->
      let b = Binned.make ~width:50. (List.to_seq obs) in
      let xs = List.map (fun r -> r.Binned.x_mid) b in
      List.sort compare xs = xs
      && List.for_all
           (fun r -> r.Binned.p10 <= r.Binned.p50 && r.Binned.p50 <= r.Binned.p90)
           b)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_arith () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 5.; 7.; 9. |] (Vec.add a b);
  Alcotest.(check (array (float 1e-9))) "sub" [| -3.; -3.; -3. |] (Vec.sub a b);
  Alcotest.(check (array (float 1e-9))) "scale" [| 2.; 4.; 6. |] (Vec.scale 2. a);
  checkf "dot" 32. (Vec.dot a b);
  checkf "norm" (sqrt 14.) (Vec.norm a)

let test_vec_unit_direction () =
  let a = [| 3.; 0. |] and b = [| 0.; 0. |] in
  (match Vec.unit_direction a b with
  | Some u -> Alcotest.(check (array (float 1e-9))) "direction" [| 1.; 0. |] u
  | None -> Alcotest.fail "expected direction");
  Alcotest.(check bool) "coincident -> None" true (Vec.unit_direction b b = None)

let test_vec_random_unit () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    checkf_loose 1e-9 "unit norm" 1. (Vec.norm (Vec.random_unit rng 5))
  done

let vec_pair_gen =
  QCheck2.Gen.(
    let v = array_size (return 4) (float_range (-100.) 100.) in
    triple v v v)

let prop_vec_triangle =
  qcheck "euclidean distance satisfies triangle inequality" vec_pair_gen
    (fun (a, b, c) ->
      Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-6)

let prop_vec_dist_symmetric =
  qcheck "distance symmetric" vec_pair_gen (fun (a, b, _) ->
      abs_float (Vec.dist a b -. Vec.dist b a) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)

let test_linalg_solve_known () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 5.; 10. |] in
  let x = Linalg.solve a b in
  checkf_loose 1e-9 "x0" 1. x.(0);
  checkf_loose 1e-9 "x1" 3. x.(1)

let test_linalg_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
      ignore (Linalg.solve a [| 1.; 1. |]))

let test_linalg_transpose () =
  let a = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Linalg.transpose a in
  Alcotest.(check int) "rows" 3 (Array.length t);
  checkf "t(0)(1)" 4. t.(0).(1)

let test_linalg_matmul_identity () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let id = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let p = Linalg.mat_mul a id in
  Alcotest.(check (array (array (float 1e-9)))) "a * I = a" a p

let test_linalg_frobenius () =
  checkf "frobenius" 5. (Linalg.frobenius [| [| 3.; 4. |] |])

let prop_linalg_solve_roundtrip =
  qcheck ~count:100 "solve recovers planted solution"
    QCheck2.Gen.(pair int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      (* Diagonally dominant matrices are always solvable. *)
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 10. +. Rng.float rng 5. else Rng.uniform rng (-1.) 1.))
      in
      let x = Array.init n (fun _ -> Rng.uniform rng (-10.) 10.) in
      let b = Linalg.mat_vec a x in
      let x' = Linalg.solve a b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) x x')

let test_linalg_eigen_known () =
  (* diag(3, 1) has eigenpairs (3, e1) and (1, e2). *)
  let c = [| [| 3.; 0. |]; [| 0.; 1. |] |] in
  match Linalg.symmetric_top_eigenpairs c ~k:2 with
  | [ (l1, v1); (l2, v2) ] ->
    checkf_loose 1e-6 "first eigenvalue" 3. l1;
    checkf_loose 1e-6 "second eigenvalue" 1. l2;
    checkf_loose 1e-6 "v1 along e1" 1. (abs_float v1.(0));
    checkf_loose 1e-6 "v2 along e2" 1. (abs_float v2.(1))
  | other -> Alcotest.failf "expected 2 eigenpairs, got %d" (List.length other)

let test_linalg_eigen_rank_deficient () =
  (* Rank-1 matrix: only one non-zero eigenpair should come back. *)
  let c = [| [| 2.; 2. |]; [| 2.; 2. |] |] in
  match Linalg.symmetric_top_eigenpairs c ~k:2 with
  | [ (l1, v1) ] ->
    checkf_loose 1e-6 "eigenvalue 4" 4. l1;
    checkf_loose 1e-6 "direction" (abs_float v1.(0)) (abs_float v1.(1))
  | other -> Alcotest.failf "expected 1 eigenpair, got %d" (List.length other)

let prop_linalg_eigen_residual =
  qcheck ~count:50 "eigenpairs satisfy C v = lambda v"
    QCheck2.Gen.(pair int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      (* Random PSD matrix: A Aᵀ. *)
      let a =
        Array.init n (fun _ -> Array.init n (fun _ -> Rng.uniform rng (-2.) 2.))
      in
      let c = Linalg.mat_mul a (Linalg.transpose a) in
      let pairs = Linalg.symmetric_top_eigenpairs ~iterations:1000 c ~k:2 in
      (* Near-degenerate spectra converge slowly, so judge the residual
         relative to the spectral scale. *)
      let scale =
        List.fold_left (fun acc (l, _) -> Float.max acc (abs_float l)) 1. pairs
      in
      List.for_all
        (fun (lambda, v) ->
          let cv = Linalg.mat_vec c v in
          Array.for_all2
            (fun x y -> abs_float (x -. (lambda *. y)) < 1e-2 *. scale)
            cv v)
        pairs)

let prop_linalg_lstsq_exact =
  qcheck ~count:100 "lstsq recovers exact solution of consistent system"
    QCheck2.Gen.(pair int (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m = n + 3 in
      let a =
        Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng (-5.) 5.))
      in
      let x = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
      let b = Linalg.mat_vec a x in
      match Linalg.lstsq a b with
      | x' -> Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-3) x x'
      | exception Linalg.Singular -> true (* degenerate random draw *))

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3. "c";
  Pqueue.push q 1. "a";
  Pqueue.push q 2. "b";
  Alcotest.(check (option (pair (float 0.) string))) "peek" (Some (1., "a")) (Pqueue.peek q);
  Alcotest.(check (option (pair (float 0.) string))) "pop a" (Some (1., "a")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.) string))) "pop b" (Some (2., "b")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.) string))) "pop c" (Some (3., "c")) (Pqueue.pop q);
  Alcotest.(check bool) "empty" true (Pqueue.pop q = None)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1. "first";
  Pqueue.push q 1. "second";
  Pqueue.push q 1. "third";
  Alcotest.(check (option (pair (float 0.) string))) "tie 1" (Some (1., "first")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.) string))) "tie 2" (Some (1., "second")) (Pqueue.pop q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q 1. 1;
  Pqueue.clear q;
  Alcotest.(check int) "cleared" 0 (Pqueue.length q)

let test_pqueue_min_prio () =
  let q = Pqueue.create () in
  Alcotest.(check (float 0.)) "empty is infinity" infinity (Pqueue.min_prio q);
  Pqueue.push q 3. "c";
  Pqueue.push q 1. "a";
  Alcotest.(check (float 0.)) "head priority" 1. (Pqueue.min_prio q);
  ignore (Pqueue.pop q);
  Alcotest.(check (float 0.)) "after pop" 3. (Pqueue.min_prio q);
  ignore (Pqueue.pop q);
  Alcotest.(check (float 0.)) "drained is infinity" infinity (Pqueue.min_prio q)

let prop_pqueue_sorted =
  qcheck "pops come out sorted"
    QCheck2.Gen.(list (float_range (-1e3) 1e3))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) prios;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* Welford                                                             *)

let prop_welford_matches_stats =
  qcheck "welford mean/variance match batch stats" float_list_gen (fun l ->
      let w = Welford.create () in
      List.iter (Welford.add w) l;
      let xs = Array.of_list l in
      abs_float (Welford.mean w -. Stats.mean xs) < 1e-6
      && abs_float (Welford.variance w -. Stats.variance xs) < 1e-4)

let prop_welford_merge =
  qcheck "welford merge equals combined stream"
    QCheck2.Gen.(pair float_list_gen float_list_gen)
    (fun (l1, l2) ->
      let a = Welford.create () and b = Welford.create () in
      List.iter (Welford.add a) l1;
      List.iter (Welford.add b) l2;
      let m = Welford.merge a b in
      let all = Welford.create () in
      List.iter (Welford.add all) (l1 @ l2);
      Welford.count m = Welford.count all
      && abs_float (Welford.mean m -. Welford.mean all) < 1e-6
      && abs_float (Welford.variance m -. Welford.variance all) < 1e-4)

let test_welford_min_max () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 3.; -1.; 7. ];
  checkf "min" (-1.) (Welford.min w);
  checkf "max" 7. (Welford.max w)

let test_welford_empty () =
  let w = Welford.create () in
  Alcotest.(check int) "count" 0 (Welford.count w);
  Alcotest.check_raises "min empty" (Invalid_argument "Welford.min: no samples")
    (fun () -> ignore (Welford.min w))

(* Bit-exact known answers on a fixed sample, generated before the
   accumulator became an all-float record: a = the first four samples,
   b = the rest.  Rendered as count, then mean, variance, min and max
   in %h. *)
let welford_sample = [ 3.5; -1.25; 7.; 0.1; 2e3; -0.3; 42.; 1e-3; 17.25 ]

let render_welford w =
  Printf.sprintf "%d %h %h %h %h" (Welford.count w) (Welford.mean w)
    (Welford.variance w) (Welford.min w) (Welford.max w)

let test_welford_known_answers () =
  let of_list l =
    let w = Welford.create () in
    List.iter (Welford.add w) l;
    w
  in
  let a = of_list (List.filteri (fun k _ -> k < 4) welford_sample)
  and b = of_list (List.filteri (fun k _ -> k >= 4) welford_sample) in
  let empty = Welford.create () in
  let got =
    [
      ("a", a); ("b", b); ("all", of_list welford_sample);
      ("merge a b", Welford.merge a b); ("merge b a", Welford.merge b a);
      ("merge a empty", Welford.merge a empty);
      ("merge empty b", Welford.merge empty b);
    ]
  in
  let expected =
    [
    ("a", "4 0x1.2b33333333333p+1 0x1.b4fae147ae148p+3 -0x1.4p+0 0x1.cp+2");
    ("b", "5 0x1.9bca4a8c154c9p+8 0x1.8108ee77a553p+19 -0x1.3333333333333p-2 0x1.f4p+10");
    ("all", "9 0x1.cb9f5884e4772p+7 0x1.ae84ad8ddc25fp+18 -0x1.4p+0 0x1.f4p+10");
    ("merge a b", "9 0x1.cb9f5884e4774p+7 0x1.ae84ad8ddc25ep+18 -0x1.4p+0 0x1.f4p+10");
    ("merge b a", "9 0x1.cb9f5884e4773p+7 0x1.ae84ad8ddc25ep+18 -0x1.4p+0 0x1.f4p+10");
    ("merge a empty", "4 0x1.2b33333333333p+1 0x1.b4fae147ae148p+3 -0x1.4p+0 0x1.cp+2");
    ("merge empty b", "5 0x1.9bca4a8c154c9p+8 0x1.8108ee77a553p+19 -0x1.3333333333333p-2 0x1.f4p+10");
    ]
  in
  List.iter2
    (fun (name, w) (name', e) ->
      check Alcotest.string name e (render_welford w);
      check Alcotest.string "case order" name' name)
    got expected

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

module Zipf = Tivaware_util.Zipf

let test_zipf_uniform () =
  (* s = 0 is the uniform distribution. *)
  let z = Zipf.create ~n:4 ~s:0. in
  for k = 0 to 3 do
    checkf_loose 1e-9 "uniform probability" 0.25 (Zipf.probability z k)
  done

let test_zipf_known_probabilities () =
  (* n = 3, s = 1: weights 1, 1/2, 1/3 — harmonic normalization 11/6. *)
  let z = Zipf.create ~n:3 ~s:1. in
  checkf_loose 1e-9 "rank 0" (6. /. 11.) (Zipf.probability z 0);
  checkf_loose 1e-9 "rank 1" (3. /. 11.) (Zipf.probability z 1);
  checkf_loose 1e-9 "rank 2" (2. /. 11.) (Zipf.probability z 2);
  Alcotest.(check int) "n recorded" 3 (Zipf.n z);
  checkf "s recorded" 1. (Zipf.s z)

let test_zipf_empirical () =
  let z = Zipf.create ~n:8 ~s:0.9 in
  let rng = Rng.create 99 in
  let counts = Array.make 8 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 7 do
    checkf_loose 0.01 "empirical frequency matches probability"
      (Zipf.probability z k)
      (float_of_int counts.(k) /. float_of_int draws)
  done;
  (* Rank popularity is monotone for s > 0. *)
  for k = 0 to 6 do
    Alcotest.(check bool) "lower rank more popular" true
      (counts.(k) >= counts.(k + 1))
  done

let test_zipf_one_draw_per_sample () =
  (* Replayability contract: exactly one generator draw per sample, so
     a Zipf workload interleaved with other seeded draws stays aligned. *)
  let z = Zipf.create ~n:16 ~s:0.9 in
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    ignore (Zipf.sample z a);
    ignore (Rng.float b 1.)
  done;
  check Alcotest.int64 "streams advanced identically" (Rng.int64 a) (Rng.int64 b)

let test_zipf_validation () =
  let bad f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "n = 0 rejected" true
    (bad (fun () -> Zipf.create ~n:0 ~s:1.));
  Alcotest.(check bool) "negative s rejected" true
    (bad (fun () -> Zipf.create ~n:4 ~s:(-0.1)));
  Alcotest.(check bool) "NaN s rejected" true
    (bad (fun () -> Zipf.create ~n:4 ~s:nan))

let prop_zipf_in_range =
  qcheck "samples in [0, n)"
    QCheck2.Gen.(triple (int_range 1 64) (float_range 0. 3.) int)
    (fun (n, s, seed) ->
      let z = Zipf.create ~n ~s in
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let k = Zipf.sample z rng in
          k >= 0 && k < n)
        (List.init 50 Fun.id))

let prop_zipf_probabilities_sum =
  qcheck ~count:100 "probabilities sum to one"
    QCheck2.Gen.(pair (int_range 1 128) (float_range 0. 3.))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let sum = ref 0. in
      for k = 0 to n - 1 do
        sum := !sum +. Zipf.probability z k
      done;
      abs_float (!sum -. 1.) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Nelder_mead                                                         *)

module Nelder_mead = Tivaware_util.Nelder_mead

let test_nm_quadratic () =
  (* Minimize (x-3)^2 + (y+1)^2. *)
  let f v = ((v.(0) -. 3.) ** 2.) +. ((v.(1) +. 1.) ** 2.) in
  let x, value = Nelder_mead.minimize ~f [| 0.; 0. |] in
  checkf_loose 1e-3 "x" 3. x.(0);
  checkf_loose 1e-3 "y" (-1.) x.(1);
  checkf_loose 1e-5 "min value" 0. value

let test_nm_rosenbrock () =
  (* The classic banana function; minimum at (1, 1). *)
  let f v =
    let a = 1. -. v.(0) and b = v.(1) -. (v.(0) *. v.(0)) in
    (a *. a) +. (100. *. b *. b)
  in
  let options =
    { Nelder_mead.default_options with Nelder_mead.max_iterations = 5000 }
  in
  let x, _ = Nelder_mead.minimize ~options ~f [| -1.; 1. |] in
  checkf_loose 0.05 "rosenbrock x" 1. x.(0);
  checkf_loose 0.05 "rosenbrock y" 1. x.(1)

let test_nm_1d () =
  let f v = abs_float (v.(0) -. 7.) in
  let x, _ = Nelder_mead.minimize ~f [| 0. |] in
  checkf_loose 1e-3 "1d minimum" 7. x.(0)

let test_nm_input_not_mutated () =
  let x0 = [| 5.; 5. |] in
  let f v = (v.(0) *. v.(0)) +. (v.(1) *. v.(1)) in
  ignore (Nelder_mead.minimize ~f x0);
  Alcotest.(check (array (float 0.))) "x0 intact" [| 5.; 5. |] x0

let prop_nm_improves =
  qcheck ~count:50 "result never worse than the starting point"
    QCheck2.Gen.(pair int (int_range 1 4))
    (fun (seed, dim) ->
      let rng = Rng.create seed in
      let center = Array.init dim (fun _ -> Rng.uniform rng (-10.) 10.) in
      let f v =
        let acc = ref 0. in
        Array.iteri (fun i x -> acc := !acc +. ((x -. center.(i)) ** 2.)) v;
        !acc
      in
      let x0 = Array.init dim (fun _ -> Rng.uniform rng (-10.) 10.) in
      let _, value = Nelder_mead.minimize ~f x0 in
      value <= f x0 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Table / Ascii_plot                                                  *)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "contains row cell" true (contains_substring s "alpha");
  Alcotest.(check bool) "contains header cell" true (contains_substring s "value")

let test_table_padding () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only-one" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "renders despite short row" true (String.length s > 0)

let test_ascii_plot () =
  let out = Ascii_plot.plot [ ('x', [ (0., 0.); (1., 1.) ]) ] in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  let empty = Ascii_plot.plot [] in
  Alcotest.(check string) "empty plot" "(empty plot)\n" empty

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "gauss moments" `Quick test_rng_gauss_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_min;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "lognormal" `Quick test_rng_lognormal_positive;
          Alcotest.test_case "choice membership" `Quick test_rng_choice;
          prop_rng_int_bounds;
          prop_rng_float_bounds;
          prop_shuffle_multiset;
          prop_permutation;
          prop_sample_indices;
        ]
        @ kat_cases );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "single element" `Quick test_stats_single;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "min max" `Quick test_stats_min_max;
          Alcotest.test_case "sorted_copy pure" `Quick test_sorted_copy_pure;
          prop_percentile_monotone;
          prop_mean_bounded;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval basics" `Quick test_cdf_basics;
          Alcotest.test_case "count and mean" `Quick test_cdf_count_and_mean;
          Alcotest.test_case "quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "points downsampling" `Quick test_cdf_points;
          prop_cdf_monotone;
        ] );
      ( "binned",
        [
          Alcotest.test_case "basics" `Quick test_binned_basics;
          Alcotest.test_case "filters" `Quick test_binned_filters;
          prop_binned_ordered;
        ] );
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arith;
          Alcotest.test_case "add_inplace" `Quick test_vec_add_inplace;
          Alcotest.test_case "unit direction" `Quick test_vec_unit_direction;
          Alcotest.test_case "random unit" `Quick test_vec_random_unit;
          prop_vec_triangle;
          prop_vec_dist_symmetric;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "solve 2x2" `Quick test_linalg_solve_known;
          Alcotest.test_case "singular detection" `Quick test_linalg_singular;
          Alcotest.test_case "transpose" `Quick test_linalg_transpose;
          Alcotest.test_case "matmul identity" `Quick test_linalg_matmul_identity;
          Alcotest.test_case "frobenius" `Quick test_linalg_frobenius;
          prop_linalg_solve_roundtrip;
          prop_linalg_lstsq_exact;
          Alcotest.test_case "eigen known" `Quick test_linalg_eigen_known;
          Alcotest.test_case "eigen rank deficient" `Quick test_linalg_eigen_rank_deficient;
          prop_linalg_eigen_residual;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "min_prio" `Quick test_pqueue_min_prio;
          prop_pqueue_sorted;
        ] );
      ( "welford",
        [
          prop_welford_matches_stats;
          prop_welford_merge;
          Alcotest.test_case "min max" `Quick test_welford_min_max;
          Alcotest.test_case "empty" `Quick test_welford_empty;
          Alcotest.test_case "known answers" `Quick test_welford_known_answers;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform at s=0" `Quick test_zipf_uniform;
          Alcotest.test_case "known probabilities" `Quick
            test_zipf_known_probabilities;
          Alcotest.test_case "empirical frequencies" `Quick test_zipf_empirical;
          Alcotest.test_case "one draw per sample" `Quick
            test_zipf_one_draw_per_sample;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
          prop_zipf_in_range;
          prop_zipf_probabilities_sum;
        ] );
      ( "nelder_mead",
        [
          Alcotest.test_case "quadratic" `Quick test_nm_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nm_rosenbrock;
          Alcotest.test_case "one-dimensional" `Quick test_nm_1d;
          Alcotest.test_case "input not mutated" `Quick test_nm_input_not_mutated;
          prop_nm_improves;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "table padding" `Quick test_table_padding;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
        ] );
    ]
