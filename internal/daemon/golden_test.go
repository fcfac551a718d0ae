package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"testing"
)

// goldenResponses pins every per-dataset query endpoint byte for byte: each
// path is requested buffered and with "Accept: application/x-ndjson", and
// the SHA-256 of "status\ncontent-type\n" followed by the body must match.
// The digests were recorded against the per-endpoint handlers that
// serveQuery replaced, so the table pins that the merge changed no byte.
// The paths cover the optional flags (labels=false, edges=false, ids=false,
// minclustersize, star, algo), both distance kernels of the k-d tree (L2 and
// the general-metric traversal), float32, a dataset with an insert overlay
// and tombstones, broadcast, 404s, query errors, and malformed parameters.
var goldenResponses = []struct{ path, buffered, ndjson string }{
	{"/v1/datasets/p/hdbscan?minpts=5&eps=0.5",
		"90463429e1b312a31f03415f422b5c1bcfd8018ed0bbc7a6cc7266083d5917b4",
		"fdeee64f694bfd528089d0a5ca136cc294508a96d23fe91745b8c82a1bcb70b5"},
	{"/v1/datasets/p/hdbscan?minpts=5&eps=0.5&labels=false",
		"8f45254a76bec0ddb5fa6b967b800ce96d725296a86c6353e17269f36339de24",
		"b26f244c35e5fca0734959740c5b192d3d154f1e8c9afcf6e5ea80d13257400e"},
	{"/v1/datasets/p/hdbscan?minpts=5&minclustersize=10",
		"fdfb039b4bbf7d87095ba4dc2ac7876caf815494735e22316093fedbfa1e2bec",
		"16edc5e639712269c7326d7b4677a4ad7c2aa293427a90080e1003b72223ea8b"},
	{"/v1/datasets/p/hdbscan?minpts=5&minclustersize=10&labels=false",
		"207b29db3c99d6830b364101ecea6601debd52178681fd488856630096d70541",
		"37ba00cd4148d5d4eb64ab278813f64eaa4c5c74162244f9a5e1060555daccbb"},
	{"/v1/datasets/p/hdbscan?minpts=4&eps=1&algo=gantao",
		"cab88eecc44e66ae94ba5fcc517149c879491444b1003f946f7e657e0421fe4f",
		"3dc2dbcc564d9a1ff5024d5a6dddd9ef3dd6125e0dc898545655ea84e443460a"},
	{"/v1/datasets/p/hdbscan?minpts=4&eps=1&algo=gantaofull&labels=true",
		"8110f0ef1abfc0f1f28171f12bd3bac7e344cc78cfae5507f2459bf40f7d18ec",
		"6e4cb63518d3bb5b2c54b9e098ba62f53f91f1ada098639d95acb9e0431c75d4"},
	{"/v1/datasets/p/dbscan?minpts=5&eps=0.5",
		"fc450cf34cdfc7c5f548f238493957cbbac95871ad1cde60bb4a305f574cb3ab",
		"8ffa8643a88aae775717cca65e9af8a353de410b061b92b979ef82a4c4e4d325"},
	{"/v1/datasets/p/dbscan?minpts=5&eps=0.5&labels=false",
		"954c601282f73dc106976268d59298539f48002b817204902150b4567d7cede4",
		"a7c22e4323509affe71e07e64cfdbb40c68f995560d0b7377a18fcfe83fbe1b0"},
	{"/v1/datasets/p/dbscan?minpts=5&eps=0.5&star=true",
		"e08b39ed45f43dace5658b7d9e03910d7dd5b91986f4efd34ab77fcc2e4e87a5",
		"c26ac8b9cab1b5bcc3898b44c70c5908955e28bf7bca808e73527b66fe00278f"},
	{"/v1/datasets/p/optics?minpts=5",
		"41631471b9ef1e83ff3947aed56045aa44300b53241e6f1a450ce0a4e55dcd3e",
		"9829e08fa308bb2694503d4b262ba988d91b277dc82123a9bac92fa84e9c9caa"},
	{"/v1/datasets/p/optics?minpts=5&eps=0.4",
		"002584b1f8bd90eec4a4279b26b1241a8e6b25614fc1a541cb0cd6afb09fcbca",
		"ac87e0a4b65595c5a4a1be5ad92755ce9884c25af4d4f0e587dc1f875ed157f0"},
	{"/v1/datasets/p/emst",
		"832c8b53f874f93bde95426bd94fd6922f736a329b0e3a076c85966e1a7bf864",
		"740cea14be0cb833f0b7b7de525c1e54da5a7a260d9f36dc89bf9e2e1ada77d9"},
	{"/v1/datasets/p/emst?edges=false",
		"4b2460c9d9e2c1296d0f4a70bbfb3f8da46474f2ec5a31389d5b00fd17566e71",
		"8dda3d31beb2d0784df8918d3cb8fb741451e6e659d39cab090c2cfa8877c1b4"},
	{"/v1/datasets/p/emst?algo=boruvka&edges=true",
		"ffcf99fdb20485ae15112e44bebede19aeaf08dea521577aaa33054b158e24f6",
		"6ad4eae19ea0505e1dbb2db7515399b446bd4ce74a7a943a23d323b0e5c16f82"},
	{"/v1/datasets/p/knn?q=3&k=7",
		"c4603c3bac8d0d73c1fc5f9bdc80545ff573d42272864adbc1fcb0352fabf839",
		"c4603c3bac8d0d73c1fc5f9bdc80545ff573d42272864adbc1fcb0352fabf839"},
	{"/v1/datasets/p/knn?q=199&k=1",
		"51a44aa59ca5da38f4d81cf19f951e5a28e1a79985558cd7916bd84afb94f974",
		"51a44aa59ca5da38f4d81cf19f951e5a28e1a79985558cd7916bd84afb94f974"},
	{"/v1/datasets/p/knn?q=0&k=500",
		"9a462436bfce378c6f6146671a91fd2b7e9655b7b8287615e76d1b54e6ac845b",
		"9a462436bfce378c6f6146671a91fd2b7e9655b7b8287615e76d1b54e6ac845b"},
	{"/v1/datasets/p/range?q=3&r=0.5",
		"dd6eca3d3760b3f7a991549507b437bcf32498e6ab82f192943fcb217fa6dbd4",
		"dd6eca3d3760b3f7a991549507b437bcf32498e6ab82f192943fcb217fa6dbd4"},
	{"/v1/datasets/p/range?q=3&r=0.5&ids=false",
		"a21f5537c3e4bb43e6090ab0b7ad8cab9b639ebebb115c744e619ea6d537d0aa",
		"a21f5537c3e4bb43e6090ab0b7ad8cab9b639ebebb115c744e619ea6d537d0aa"},
	{"/v1/datasets/p/range?q=3&r=0",
		"f000f4c01a749a3847e10ee8ffa770caba62f0dbf370428137a03c609d356a6f",
		"f000f4c01a749a3847e10ee8ffa770caba62f0dbf370428137a03c609d356a6f"},
	{"/v1/datasets/l1/knn?q=2&k=6",
		"b38ac4c28744e5d6d162c8e3cd6c454089f9f9b1ac399d412e927148bd4a3a04",
		"b38ac4c28744e5d6d162c8e3cd6c454089f9f9b1ac399d412e927148bd4a3a04"},
	{"/v1/datasets/l1/range?q=2&r=1.5",
		"371dd2b06c7ac1b8c67b2b3221c8f989c99fe15bc1b0057c612795e06f2d4156",
		"371dd2b06c7ac1b8c67b2b3221c8f989c99fe15bc1b0057c612795e06f2d4156"},
	{"/v1/datasets/l1/hdbscan?minpts=4&eps=1",
		"ec24349b092f4e84f4b8eabeb9ed213b1e49df8bfb6d0bbc7dc024e636ae0f9a",
		"d61c9c8d2e7373bf856380cd472c7f9f1b9adf2a3a42de2aa240ae974c0e4a3f"},
	{"/v1/datasets/l1/emst",
		"7e8fc852ceac63d07f88e1a0ee0674f0af619b05268f4fcbba707b6785c9d33a",
		"7feeb06f928e4a82157a478a878627699cecc3dc2ba55feaf54a63b036acba14"},
	{"/v1/datasets/f32/knn?q=2&k=4",
		"7267996a5d82e7ebabae5c9cdb6374699c9c40879c6bd6c4ec2705f95444a33a",
		"7267996a5d82e7ebabae5c9cdb6374699c9c40879c6bd6c4ec2705f95444a33a"},
	{"/v1/datasets/f32/range?q=2&r=1.5",
		"a7fd32df3d1e32010af3fa90365b9cb0edfb303d953df0a089b28023711005e0",
		"a7fd32df3d1e32010af3fa90365b9cb0edfb303d953df0a089b28023711005e0"},
	{"/v1/datasets/f32/emst",
		"234f271855ea6ba93265beea38830aead9d87cc0a4f5ef49ac09eacbec3e9306",
		"a2e67ebc876e01dc04b0d3f5cf96878524502f3960eb2d934111b8673929d2cc"},
	{"/v1/datasets/f32/hdbscan?minpts=2&eps=1",
		"68bd400017ccdcca2b2ba2e59111d03c5c01af1f17c4de08c30fd72801f86f3b",
		"abc75e6ca9f12aab10c8790a6fc35da6de940a560129e72edd4a9ae5f89e4f8b"},
	{"/v1/datasets/live/knn?q=0&k=8",
		"9c05700e77be1ff5cf0cb9f2976e16fc0d157655bae32f8d3b41ced2a39d49ca",
		"9c05700e77be1ff5cf0cb9f2976e16fc0d157655bae32f8d3b41ced2a39d49ca"},
	{"/v1/datasets/live/knn?q=148&k=5",
		"bbeb831bc86cd0c29e0b5148bc710dbfc41a8c6767a4ca634a0110f93b63e4f1",
		"bbeb831bc86cd0c29e0b5148bc710dbfc41a8c6767a4ca634a0110f93b63e4f1"},
	{"/v1/datasets/live/range?q=0&r=1",
		"739609cda4de85ac7c2b833fbf1e6c5a1719edecdea5533aaa41aaa5f55d6802",
		"739609cda4de85ac7c2b833fbf1e6c5a1719edecdea5533aaa41aaa5f55d6802"},
	{"/v1/datasets/live/range?q=148&r=2&ids=false",
		"7f9ddf98bffd57c26169b1b73d0191522732ecf7e00e570460e9f7835dc3ccca",
		"7f9ddf98bffd57c26169b1b73d0191522732ecf7e00e570460e9f7835dc3ccca"},
	{"/v1/datasets/live/dbscan?minpts=4&eps=0.6",
		"ba26a9c53bf5e5c1eba3f018c02acc826c5829cbbb2ab023bbb518eb7cc8bddf",
		"b5c4c34472345e6bbff9fe354f8ae288b4f663b969940eb476990c3b20304738"},
	{"/v1/datasets/live/knn?q=0&k=8",
		"9c05700e77be1ff5cf0cb9f2976e16fc0d157655bae32f8d3b41ced2a39d49ca",
		"9c05700e77be1ff5cf0cb9f2976e16fc0d157655bae32f8d3b41ced2a39d49ca"},
	{"/v1/datasets/live/range?q=0&r=1",
		"b6ee063f2a8d0f4ac1f24a430df9483e04d8160f9439e4e784db446b9beb2699",
		"b6ee063f2a8d0f4ac1f24a430df9483e04d8160f9439e4e784db446b9beb2699"},
	{"/v1/broadcast/hdbscan?minpts=2&eps=0.5",
		"3b234a5ed2fde0b6fa822a3fa033377753b05bbed090de8842fbf05f2e9262bd",
		"3b234a5ed2fde0b6fa822a3fa033377753b05bbed090de8842fbf05f2e9262bd"},
	{"/v1/datasets/missing/knn?q=0&k=3",
		"c180745794f999a8c80f80e38c5b5077e6de04ed18f2af5b8f0338e8ddda18cb",
		"c180745794f999a8c80f80e38c5b5077e6de04ed18f2af5b8f0338e8ddda18cb"},
	{"/v1/datasets/missing/hdbscan?minpts=abc",
		"c180745794f999a8c80f80e38c5b5077e6de04ed18f2af5b8f0338e8ddda18cb",
		"c180745794f999a8c80f80e38c5b5077e6de04ed18f2af5b8f0338e8ddda18cb"},
	{"/v1/datasets/p/hdbscan?minpts=999&eps=1",
		"97c6c8524a9fc0db0ac2005e8c27f888796d6efdefd5b092dbabef8e77ace357",
		"97c6c8524a9fc0db0ac2005e8c27f888796d6efdefd5b092dbabef8e77ace357"},
	{"/v1/datasets/p/knn?q=-1&k=3",
		"bab2b45002adea75f4d60f0295cc74311df15af27545161a26ca62410fa34340",
		"bab2b45002adea75f4d60f0295cc74311df15af27545161a26ca62410fa34340"},
	{"/v1/datasets/p/knn?q=200&k=3",
		"5959eec5c14dfdddd4ebcf3699f694b5e85178d944f82c0d9914d450ba154a78",
		"5959eec5c14dfdddd4ebcf3699f694b5e85178d944f82c0d9914d450ba154a78"},
	{"/v1/datasets/p/knn?q=0&k=0",
		"b230773762f0cbfac6b0491ed568a8e32daa9ca0a5e856be46192860322e6a49",
		"b230773762f0cbfac6b0491ed568a8e32daa9ca0a5e856be46192860322e6a49"},
	{"/v1/datasets/p/range?q=0&r=-2",
		"bc93f807a2fb0b159cc3971af7216d42b9a8920c479c43f3b14f07fa52f5dd1e",
		"bc93f807a2fb0b159cc3971af7216d42b9a8920c479c43f3b14f07fa52f5dd1e"},
	{"/v1/datasets/p/optics?minpts=0",
		"964c8b34889d96fa6d729d7ba727a2477f0e6913a3b8efc239afb714fd1dcb84",
		"964c8b34889d96fa6d729d7ba727a2477f0e6913a3b8efc239afb714fd1dcb84"},
	{"/v1/datasets/p/optics?minpts=",
		"f8da9170cbaa94f7c745807fec4d9d555fbab4152b0b38d596c5a759ef1da0b9",
		"f8da9170cbaa94f7c745807fec4d9d555fbab4152b0b38d596c5a759ef1da0b9"},
	{"/v1/datasets/p/hdbscan?minpts=abc&eps=1",
		"d15d44ac1270aad5c020eec70d562577978610e0835704dfc07cf2390290dae6",
		"d15d44ac1270aad5c020eec70d562577978610e0835704dfc07cf2390290dae6"},
	{"/v1/datasets/p/hdbscan?minpts=3",
		"fb909496465da016bf1ae53248184b3669dc5c5778118327586ede418338348e",
		"fb909496465da016bf1ae53248184b3669dc5c5778118327586ede418338348e"},
	{"/v1/datasets/p/hdbscan?minpts=3&eps=xyz",
		"766476111a827fb3778b0633ebf330318577a7adc3caacbc764b19f0ca8e7012",
		"766476111a827fb3778b0633ebf330318577a7adc3caacbc764b19f0ca8e7012"},
	{"/v1/datasets/p/hdbscan?minpts=3&minclustersize=0",
		"771941bb30bde8e748c0d75ff864948fbdb67d8cfd87ac3c876da20f609e67ce",
		"771941bb30bde8e748c0d75ff864948fbdb67d8cfd87ac3c876da20f609e67ce"},
	{"/v1/datasets/p/hdbscan?minpts=3&minclustersize=abc",
		"fedbc7fae6c7798ef259a5b8d2b8eeb50bf8cab3c1a009126699d14eb6d54888",
		"fedbc7fae6c7798ef259a5b8d2b8eeb50bf8cab3c1a009126699d14eb6d54888"},
	{"/v1/datasets/p/hdbscan?minpts=3&eps=1&algo=bogus",
		"d78ee4639f0953fe8e2af95de97fb04ec73939d74bd70c7a3cc4b86069ad5290",
		"d78ee4639f0953fe8e2af95de97fb04ec73939d74bd70c7a3cc4b86069ad5290"},
	{"/v1/datasets/p/hdbscan?minpts=3&eps=1&labels=maybe",
		"f0ebdd7dc0b2c20b7a95d96096ca22c235329f5f6696db4797c5bbd4954f68ee",
		"f0ebdd7dc0b2c20b7a95d96096ca22c235329f5f6696db4797c5bbd4954f68ee"},
	{"/v1/datasets/p/dbscan?eps=1",
		"f8da9170cbaa94f7c745807fec4d9d555fbab4152b0b38d596c5a759ef1da0b9",
		"f8da9170cbaa94f7c745807fec4d9d555fbab4152b0b38d596c5a759ef1da0b9"},
	{"/v1/datasets/p/dbscan?minpts=3",
		"f5d6c651dab373c8601d0e13710f26e235a4b2891b15100b2dd22aeb0913b947",
		"f5d6c651dab373c8601d0e13710f26e235a4b2891b15100b2dd22aeb0913b947"},
	{"/v1/datasets/p/dbscan?minpts=3&eps=1&star=perhaps",
		"0591f28fba6dec1ca31185784c08195684459420dac58f26e632d3dac4b768b5",
		"0591f28fba6dec1ca31185784c08195684459420dac58f26e632d3dac4b768b5"},
	{"/v1/datasets/p/dbscan?minpts=3&eps=1&labels=maybe",
		"f0ebdd7dc0b2c20b7a95d96096ca22c235329f5f6696db4797c5bbd4954f68ee",
		"f0ebdd7dc0b2c20b7a95d96096ca22c235329f5f6696db4797c5bbd4954f68ee"},
	{"/v1/datasets/p/optics?minpts=3&eps=bad",
		"89c75b68d993d86c0efc2b8a8a24a95e338f3b925bea82f59dc55cbe6bbf2920",
		"89c75b68d993d86c0efc2b8a8a24a95e338f3b925bea82f59dc55cbe6bbf2920"},
	{"/v1/datasets/p/emst?algo=bogus",
		"87d1bc670f928718119da48b982950f042dcfa910b214238e29bf020a3e5776f",
		"87d1bc670f928718119da48b982950f042dcfa910b214238e29bf020a3e5776f"},
	{"/v1/datasets/p/emst?edges=maybe",
		"abe6bdb2b20e5223f8e8998ae3f44933dc6132773e4e153de066c7aaf53e7ba2",
		"abe6bdb2b20e5223f8e8998ae3f44933dc6132773e4e153de066c7aaf53e7ba2"},
	{"/v1/datasets/p/knn?q=0",
		"a042af5661b7b24ec7ce7368bb99f003a3dff230658f43a717c215b9efbec4a3",
		"a042af5661b7b24ec7ce7368bb99f003a3dff230658f43a717c215b9efbec4a3"},
	{"/v1/datasets/p/knn?k=3",
		"55267379fcf73126c994c57c86d9366dacbbb4690ae9afc5ac5b864df59c706f",
		"55267379fcf73126c994c57c86d9366dacbbb4690ae9afc5ac5b864df59c706f"},
	{"/v1/datasets/p/knn?q=99999999999999999999&k=3",
		"ab4f13ab26fe2385e49f31b2c035153383d4b7aeb0b2abb58322420a833454bf",
		"ab4f13ab26fe2385e49f31b2c035153383d4b7aeb0b2abb58322420a833454bf"},
	{"/v1/datasets/p/range?q=0",
		"c6e08f2522bcec5b5e459bf0e2f6dd1d78e90cd79d1da5b9c0a011242d3ec93e",
		"c6e08f2522bcec5b5e459bf0e2f6dd1d78e90cd79d1da5b9c0a011242d3ec93e"},
	{"/v1/datasets/p/range?q=0&r=bad",
		"5aa2a8a3811092fc67b9cbe7d72394584aaae52e025f274d7e96fb08b8af7303",
		"5aa2a8a3811092fc67b9cbe7d72394584aaae52e025f274d7e96fb08b8af7303"},
	{"/v1/datasets/p/range?q=0&r=1&ids=maybe",
		"db0f4f75bef72302f55194032a34c2b8be8f93f06be024044df134042c9b09d5",
		"db0f4f75bef72302f55194032a34c2b8be8f93f06be024044df134042c9b09d5"},
	{"/v1/broadcast/hdbscan?minpts=3",
		"f5d6c651dab373c8601d0e13710f26e235a4b2891b15100b2dd22aeb0913b947",
		"f5d6c651dab373c8601d0e13710f26e235a4b2891b15100b2dd22aeb0913b947"},
	{"/v1/broadcast/hdbscan?eps=1",
		"f8da9170cbaa94f7c745807fec4d9d555fbab4152b0b38d596c5a759ef1da0b9",
		"f8da9170cbaa94f7c745807fec4d9d555fbab4152b0b38d596c5a759ef1da0b9"},
}

// goldenDigest hashes one response the way goldenResponses records it.
func goldenDigest(code int, contentType string, body []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n%s\n", code, contentType)
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenResponses replays goldenResponses in order against one server.
// The order matters: the "live" dataset is queried dirty (overlay plus
// tombstones) before its global stages compact it.
func TestGoldenResponses(t *testing.T) {
	defer func(old int) { streamChunkSize = old }(streamChunkSize)
	streamChunkSize = 7 // several chunks and a ragged tail per stream

	ts := newTestServer(t, Config{})
	if code := ts.upload("p", testPoints(200), ""); code != http.StatusCreated {
		t.Fatalf("upload p: status %d", code)
	}
	if code := ts.upload("l1", testPoints(120), "l1"); code != http.StatusCreated {
		t.Fatalf("upload l1: status %d", code)
	}
	if code := ts.do(http.MethodPut, "/v1/datasets/f32?dtype=float32",
		[]byte("0,0\n0.5,0.25\n1,1\n1.25,0.75\n4,4\n4.5,4.25\n5,5\n9,1\n"), "text/csv", nil); code != http.StatusCreated {
		t.Fatalf("upload f32: status %d", code)
	}
	if code := ts.upload("live", testPoints(150), ""); code != http.StatusCreated {
		t.Fatalf("upload live: status %d", code)
	}
	rows := [][]float64{{0.25, 0.5}, {3.5, -1.25}, {7.75, 2}, {-2, 6.5}, {1, 1}}
	if code := ts.do(http.MethodPost, "/v1/datasets/live/points", insertBody(t, rows), "application/json", nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if code := ts.do(http.MethodDelete, "/v1/datasets/live/points", deleteBody(t, []int64{3, 7, 11, 151}), "application/json", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	for _, g := range goldenResponses {
		code, ct, body := ts.rawGet(g.path, "")
		if got := goldenDigest(code, ct, body); got != g.buffered {
			t.Errorf("GET %s (buffered): digest %s, want %s; response %d %s %.300q", g.path, got, g.buffered, code, ct, body)
		}
		code, ct, body = ts.rawGet(g.path, "application/x-ndjson")
		if got := goldenDigest(code, ct, body); got != g.ndjson {
			t.Errorf("GET %s (ndjson): digest %s, want %s; response %d %s %.300q", g.path, got, g.ndjson, code, ct, body)
		}
	}
}
