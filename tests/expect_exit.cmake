# Runs BIN with ARGS ('|'-separated) and requires exit status exactly
# STATUS, plus, when given, the text EXPECT_OUT on stdout and EXPECT_ERR
# on stderr. WILL_FAIL alone would also pass an abort (SIGABRT), so the
# status is checked here.
#
#   cmake -DBIN=path/to/binary "-DARGS=scan|abc|2|3" -DSTATUS=2
#         "-DEXPECT_ERR='abc'" -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR "${BIN} ${shown}: expected exit status ${STATUS}, "
                      "got '${status}'\n${out}${err}")
endif()
foreach(stream out err)
  string(TOUPPER "EXPECT_${stream}" expect)
  if(DEFINED ${expect})
    string(FIND "${${stream}}" "${${expect}}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${BIN} ${shown}: std${stream} lacks "
                          "'${${expect}}':\n${${stream}}")
    endif()
  endif()
endforeach()
